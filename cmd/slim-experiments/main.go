// Command slim-experiments regenerates every table of the SLIM paper's
// evaluation (Sec. 5) on the synthetic workloads. Each subcommand prints
// one entry of experiments.Figures — the one list of the figure names, in
// the order "all" runs them — as aligned-text tables; EXPERIMENTS.md is the
// paper-vs-measured digest of "slim-experiments all".
//
// Usage:
//
//	slim-experiments [flags] <figure|all>
//
// Scale flags: -cab-taxis, -cab-days, -sm-users, -sm-days, -seed, -workers,
// -tiny (smoke-test scale).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"slim/internal/experiments"
)

func main() {
	var (
		tiny     = flag.Bool("tiny", false, "use the smoke-test scale")
		cabTaxis = flag.Int("cab-taxis", 0, "override: ground-set taxis")
		cabDays  = flag.Int("cab-days", 0, "override: cab trace days")
		smUsers  = flag.Int("sm-users", 0, "override: ground-set SM users")
		smDays   = flag.Int("sm-days", 0, "override: SM trace days")
		seed     = flag.Int64("seed", 0, "override: workload seed")
		workers  = flag.Int("workers", 0, "override: scoring goroutines")
	)
	flag.Parse()
	var figures []experiments.Figure
	if flag.NArg() == 1 {
		for _, f := range experiments.Figures {
			if flag.Arg(0) == "all" || flag.Arg(0) == f.Name {
				figures = append(figures, f)
			}
		}
	}
	if len(figures) == 0 {
		usage()
	}

	sc := experiments.DefaultScale()
	if *tiny {
		sc = experiments.TinyScale()
	}
	if *cabTaxis > 0 {
		sc.CabTaxis = *cabTaxis
	}
	if *cabDays > 0 {
		sc.CabDays = *cabDays
	}
	if *smUsers > 0 {
		sc.SMUsers = *smUsers
	}
	if *smDays > 0 {
		sc.SMDays = *smDays
	}
	if *seed != 0 {
		sc.Seed = *seed
	}
	if *workers > 0 {
		sc.Workers = *workers
	}

	for _, f := range figures {
		fmt.Printf("==== %s ====\n", f.Name)
		start := time.Now()
		text, err := f.Run(sc)
		if err != nil {
			fatal(err)
		}
		fmt.Print(text)
		fmt.Printf("(%s finished in %v)\n\n", f.Name, time.Since(start).Round(time.Millisecond))
	}
}

func usage() {
	var names []string
	for _, f := range experiments.Figures {
		names = append(names, f.Name)
	}
	fmt.Fprintf(os.Stderr, "usage: slim-experiments [flags] <%s|all>\n", strings.Join(names, "|"))
	flag.PrintDefaults()
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "slim-experiments:", err)
	os.Exit(1)
}
