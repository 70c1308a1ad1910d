// Command slim-bench is the repository's benchmark: it builds the real
// slim-link and slimd binaries from the checkout, generates seeded
// inputs, runs four named workloads against those binaries as child
// processes, checks their outputs, and prints every metric by name with
// its unit. A traced run adds an in-process pass that re-drives the same
// inputs through the layers' public functions for the per-layer budget.
// See README.md for the workloads, the metrics and how to read them.
//
// One run of one workload (the form BENCHMARK.json's command takes):
//
//	go run -C cmd/slim-bench . --workload link_sm_lsh --seed 1 --seconds 20 --trace 0
//
// All four workloads, end-to-end and per-layer, three seeds, kept for
// later comparison:
//
//	go run -C cmd/slim-bench . -all -sets 3 -out a.jsonl
//	go run -C cmd/slim-bench . -compare a.jsonl b.jsonl
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"syscall"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 20

type options struct {
	scale   scale
	seconds int
	out     string // append each run's result line here
	spans   string // write the traced passes' spans here
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("slim-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload  = fs.String("workload", "", "run this one workload: link_cab_brute | link_sm_lsh | serve_fresh | serve_revisit")
		seed      = fs.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds   = fs.Int("seconds", defaultSeconds, "how long one run measures")
		trace     = fs.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: add the traced in-process pass and report the per-layer metrics")
		all       = fs.Bool("all", false, "run all four workloads, each untraced and traced")
		sets      = fs.Int("sets", 1, "with -all: how many sets, on seeds seed, seed+1, ...")
		scaleName = fs.String("scale", "full", "sizing preset: full | smoke")
		out       = fs.String("out", "", "append one JSON line per run to this file (input of -compare)")
		spans     = fs.String("spans", "", "write the traced passes' spans to this file as JSON lines")
		compare   = fs.Bool("compare", false, "compare two -out files: slim-bench -compare a.jsonl b.jsonl")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "slim-bench: -compare takes two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	sc, ok := scales[*scaleName]
	if !ok {
		fmt.Fprintf(stderr, "slim-bench: unknown scale %q\n", *scaleName)
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintln(stderr, "slim-bench: -seconds must be at least 1")
		return 2
	}
	opts := options{scale: sc, seconds: *seconds, out: *out, spans: *spans}

	type job struct {
		workload string
		seed     int64
		trace    bool
	}
	var jobs []job
	switch {
	case *all:
		for s := int64(0); s < int64(*sets); s++ {
			for _, w := range workloads {
				jobs = append(jobs, job{w.Name, *seed + s, false}, job{w.Name, *seed + s, true})
			}
		}
	case knownWorkload(*workload):
		jobs = []job{{*workload, *seed, *trace != 0}}
	default:
		fmt.Fprintf(stderr, "slim-bench: need -all, -compare or a known -workload (got %q)\n", *workload)
		return 2
	}

	h, err := newHarness()
	if err != nil {
		fmt.Fprintln(stderr, "slim-bench:", err)
		return 1
	}
	// A signal must not leave a slimd or a scratch directory behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		h.close()
		os.Exit(130)
	}()
	defer h.close()

	code := 0
	for _, j := range jobs {
		res, err := runWorkload(h, opts, j.workload, j.seed, j.trace)
		if err != nil {
			fmt.Fprintf(stderr, "slim-bench: %s: %v\n", j.workload, err)
			return 1
		}
		res.printTable(stdout)
		if err := res.save(opts); err != nil {
			fmt.Fprintln(stderr, "slim-bench:", err)
			return 1
		}
		if !res.correct() {
			code = 1
		}
		// Last on standard output: the one JSON object of the run.
		fmt.Fprintln(stdout, res.jsonLine(false))
	}
	return code
}

func knownWorkload(name string) bool {
	return slices.ContainsFunc(workloads, func(w workloadDef) bool { return w.Name == name })
}

// runWorkload runs one workload once in a scratch directory of its own:
// the black-box pass always, the traced pass after it when trace is set.
func runWorkload(h *harness, opts options, workload string, seed int64, trace bool) (*result, error) {
	run, err := h.newRun()
	if err != nil {
		return nil, err
	}
	defer run.close()
	res := newResult(workload, seed, trace)
	if workload == "link_cab_brute" || workload == "link_sm_lsh" {
		err = runLink(run, opts.scale, opts.seconds, res)
	} else {
		err = runServe(run, opts.scale, opts.seconds, res)
	}
	return res, err
}

// save appends the run's line to -out and its spans to -spans.
func (r *result) save(opts options) error {
	if opts.out != "" {
		f, err := os.OpenFile(opts.out, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		if _, err := fmt.Fprintln(f, r.jsonLine(true)); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if opts.spans != "" {
		for _, tr := range r.tracers {
			if err := tr.writeTo(opts.spans); err != nil {
				return err
			}
		}
	}
	return nil
}
