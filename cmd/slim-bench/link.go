package main

import (
	"bufio"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"slim"
)

// linkConfig mirrors the flag defaults of slim-link (and slimd), so the
// traced in-process pass runs the configuration the binary ran.
func linkConfig(lsh bool) slim.Config {
	cfg := slim.Config{
		WindowMinutes:    15,
		SpatialLevel:     12,
		MaxSpeedKmPerMin: 2,
		B:                0.5,
		MinRecords:       5,
		Matcher:          slim.MatcherGreedy,
		Threshold:        slim.ThresholdGMM,
	}
	if lsh {
		cfg.LSH = &slim.LSHConfig{Threshold: 0.6, StepWindows: 48, SpatialLevel: 16, NumBuckets: 4096}
	}
	return cfg
}

// runLink measures one link_* workload: slim-link as a child process,
// CSVs in, links CSV out.
func runLink(h *harness, sc scale, seconds int, res *result) error {
	lsh := res.Workload == "link_sm_lsh"
	var in *inputs
	var setups []float64
	for k := 0; k < sc.setups; k++ {
		start := time.Now()
		var err error
		if in, err = generate(res.Workload, sc, res.Seed, h.dir, seconds); err != nil {
			return err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	res.fingerprint = in.fingerprint
	res.set("setup_s", median(setups))

	args := []string{"-e", in.ePath, "-i", in.iPath}
	if lsh {
		args = append(args, "-lsh")
	}
	linksPath := filepath.Join(h.dir, "links.csv")
	var walls, cpus []float64
	var rss float64
	for rep := 0; rep < max(1, seconds/sc.linkRepSeconds[res.Workload]); rep++ {
		wall, cpu, peak, err := runToExit(h, linksPath, "slim-link", args...)
		res.Attempted++
		if err != nil {
			res.Failed++
			res.violate("slim-link: %v", err)
			return nil
		}
		walls, cpus, rss = append(walls, wall), append(cpus, cpu), max(rss, peak)
	}
	links, err := readLinksCSV(linksPath)
	if err != nil {
		return err
	}
	f1 := slim.Evaluate(links, in.truth).F1
	// Contention from other tenants of the host only ever adds time: the
	// fastest repetition is the least disturbed one.
	res.set("link_s", slices.Min(walls))
	res.set("visible_ms_p50", slices.Min(walls)*1000)
	res.set("cpu_s", slices.Min(cpus))
	res.set("rss_mb", rss)
	res.set("f1", f1)
	res.set("failed_ratio", float64(res.Failed)/float64(res.Attempted))
	if floor := sc.f1Floor[res.Workload]; f1 < floor {
		res.violate("f1 %.4f below the floor %.4f", f1, floor)
	}
	if res.Trace {
		return traceLink(in, lsh, links, res)
	}
	return nil
}

// runToExit runs one binary to completion with stdout in outPath and
// returns its wall time, user+system CPU and peak RSS (MB). The peak is
// polled while the process runs, because the kernel's figure at exit is
// not the child's alone (see peakRSSMB).
func runToExit(h *harness, outPath, name string, args ...string) (wall, cpu, rssMB float64, err error) {
	start := time.Now()
	c, err := h.start(outPath+".log", outPath, name, args...)
	if err != nil {
		return 0, 0, 0, err
	}
	tick := time.NewTicker(25 * time.Millisecond)
	defer tick.Stop()
	for running := true; running; {
		select {
		case <-c.done:
			running = false
		case <-tick.C:
			if v, err := c.peakRSSMB(); err == nil {
				rssMB = max(rssMB, v)
			}
		}
	}
	wall = time.Since(start).Seconds()
	st := c.cmd.ProcessState
	if !st.Success() {
		log, _ := os.ReadFile(outPath + ".log")
		return 0, 0, 0, fmt.Errorf("%s: %s\n%s", name, st, tail(log))
	}
	return wall, (st.UserTime() + st.SystemTime()).Seconds(), rssMB, nil
}

func readLinksCSV(path string) ([]slim.Link, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rows, err := csv.NewReader(bufio.NewReader(f)).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("reading %s: %w", path, err)
	}
	if len(rows) == 0 || len(rows[0]) != 3 || rows[0][0] != "u" {
		return nil, fmt.Errorf("%s: no u,v,score header", path)
	}
	links := make([]slim.Link, 0, len(rows)-1)
	for _, row := range rows[1:] {
		score, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			return nil, fmt.Errorf("%s: bad score %q", path, row[2])
		}
		links = append(links, slim.Link{U: slim.EntityID(row[0]), V: slim.EntityID(row[1]), Score: score})
	}
	return links, nil
}

func readDataset(path, name string) (slim.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return slim.Dataset{}, err
	}
	defer f.Close()
	return slim.ReadDatasetCSV(f, name)
}

func writeLinks(w io.Writer, links []slim.Link) {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, "u,v,score")
	for _, l := range links {
		fmt.Fprintf(bw, "%s,%s,%g\n", l.U, l.V, l.Score)
	}
	bw.Flush()
}

// traceLink re-drives the link workload's inputs in-process through the
// layers' public functions, one span per layer. The untraced run it is
// held against for the tracing overhead is the slim-link process itself,
// which did the same work on the same files.
func traceLink(in *inputs, lsh bool, want []slim.Link, res *result) error {
	cfg := linkConfig(lsh)

	tr := newTracer()
	res.tracers = append(res.tracers, tr)
	total := tr.begin("link", "")
	sp := tr.begin("model.csv_read", total.name)
	dsE, err := readDataset(in.ePath, "E")
	if err != nil {
		return err
	}
	dsI, err := readDataset(in.iPath, "I")
	if err != nil {
		return err
	}
	sp.end()

	sp = tr.begin("history.build", total.name)
	lk, err := slim.NewLinker(dsE, dsI, cfg)
	if err != nil {
		return err
	}
	sp.end()
	var pairs int64
	if st := lk.CandidateIndexStats(); st != nil {
		// The index reports its own build time; the rest of NewLinker is
		// the four history builds.
		tr.child("candidates.build", "history.build", st.LastUpdate)
		pairs = st.Candidates
	}

	sp = tr.begin("history.compile", total.name)
	lk.Precompile()
	sp.end()

	sp = tr.begin("similarity.score", total.name)
	edges, stats := lk.RunEdges()
	sp.end()

	sp = tr.begin("matching.greedy", total.name)
	matched := slim.MatchLinks(cfg.Matcher, edges)
	sp.end()

	sp = tr.begin("threshold.fit", total.name)
	thr := slim.SelectStopThreshold(cfg.Threshold, slim.LinkScores(matched))
	sp.end()

	links := slim.FilterLinks(matched, thr.Threshold)
	writeLinks(io.Discard, links)
	total.end()

	if len(links) != len(want) {
		res.violate("traced pass produced %d links, slim-link %d", len(links), len(want))
	}
	self := tr.selfSeconds()
	res.set("trace.total_s", tr.seconds("link"))
	res.set("model.csv_read_s", self["model.csv_read"])
	res.set("history.build_s", self["history.build"])
	res.set("history.compile_s", self["history.compile"])
	res.set("candidates.build_s", self["candidates.build"])
	res.set("candidates.pairs", float64(pairs))
	if all := float64(len(lk.EntitiesE())) * float64(len(lk.EntitiesI())); pairs > 0 && all > 0 {
		res.set("candidates.reduction", float64(pairs)/all)
	}
	res.set("similarity.score_s", self["similarity.score"])
	res.set("similarity.pairs", float64(stats.CandidatePairs))
	res.set("similarity.record_compares", float64(stats.RecordComparisons))
	if stats.CandidatePairs > 0 {
		res.set("similarity.ns_per_pair", self["similarity.score"]*1e9/float64(stats.CandidatePairs))
	}
	res.set("matching.greedy_s", self["matching.greedy"])
	res.set("matching.edges", float64(len(edges)))
	res.set("threshold.fit_s", self["threshold.fit"])
	res.set("slim.link_unattributed_s", self["link"])
	res.set("slim.trace_overhead_ratio", tr.seconds("link")/res.values["link_s"])
	res.set("trace.unattributed_ratio", self["link"]/tr.seconds("link"))
	checkBudget(res)
	return nil
}

// checkBudget enforces the budget rule: the layers' self times must sum
// to within 10% of the traced end-to-end time.
func checkBudget(res *result) {
	if r := res.values["trace.unattributed_ratio"]; r > 0.10 {
		res.violate("layer self times leave %.1f%% of the traced time unattributed (limit 10%%)", r*100)
	}
}
