package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestBenchmarkJSONMatchesSpec keeps BENCHMARK.json, which the driver
// reads, equal to the tables in spec.go, which the program reports from.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the program's default is %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "cmd/slim-bench" {
		t.Errorf("paths = %v, want [cmd/slim-bench]", doc.Paths)
	}
	equal := func(what string, got, want any) {
		g, _ := json.Marshal(got)
		w, _ := json.Marshal(want)
		if !bytes.Equal(g, w) {
			t.Errorf("%s differ:\nBENCHMARK.json: %s\nspec.go:        %s", what, g, w)
		}
	}
	equal("workloads", doc.Workloads, workloads)
	equal("end_to_end", doc.EndToEnd, endToEnd)
	equal("per_layer", doc.PerLayer, perLayer)
	for _, w := range workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
}

// TestSmoke drives all four workloads and their traced passes against
// freshly built binaries at the smoke scale.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs slim-link and slimd")
	}
	h, err := newHarness()
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	opts := options{scale: scales["smoke"], seconds: 2}
	run := func(workload string, seed int64) *result {
		t.Helper()
		res, err := runWorkload(h, opts, workload, seed, true)
		if err != nil {
			t.Fatalf("%s seed %d: %v", workload, seed, err)
		}
		if !res.correct() {
			t.Fatalf("%s seed %d: %s", workload, seed, strings.Join(res.violations, "; "))
		}
		if res.Attempted < 1 || res.Failed != 0 {
			t.Errorf("%s seed %d: attempted %d, failed %d", workload, seed, res.Attempted, res.Failed)
		}
		return res
	}

	seen := make(map[string]bool) // per-layer metrics some workload exercised
	first := make(map[string]*result)
	for _, w := range workloads {
		res := run(w.Name, 1)
		first[w.Name] = res
		// Every end-to-end metric is measured, and never zero, on every
		// workload; every per-layer metric is in the traced line with its unit.
		for _, d := range endToEnd {
			if v := res.values[d.Name]; v == 0 || math.IsNaN(v) {
				t.Errorf("%s: end-to-end metric %s reads %v", w.Name, d.Name, v)
			}
		}
		var l line
		if err := json.Unmarshal([]byte(res.jsonLine(false)), &l); err != nil {
			t.Fatal(err)
		}
		if len(l.Metrics) != len(perLayer) {
			t.Errorf("%s: traced line has %d metrics, want %d", w.Name, len(l.Metrics), len(perLayer))
		}
		for _, d := range perLayer {
			m, ok := l.Metrics[d.Name]
			if !ok || m.Unit != d.Unit || d.Unit == "" {
				t.Errorf("%s: per-layer metric %s missing or without its unit", w.Name, d.Name)
			}
			if m.Value != 0 {
				seen[d.Name] = true
			}
		}
		res.Trace = false
		var untraced line
		if err := json.Unmarshal([]byte(res.jsonLine(false)), &untraced); err != nil {
			t.Fatal(err)
		}
		if len(untraced.Metrics) != len(endToEnd) {
			t.Errorf("%s: untraced line has %d metrics, want %d", w.Name, len(untraced.Metrics), len(endToEnd))
		}
	}
	for _, d := range perLayer {
		// No request is shed or fails on a healthy run; those read 0.
		if !seen[d.Name] && d.Name != "ingest.shed_requests" && d.Name != "failed_ratio" &&
			d.Name != "engine.short_circuits" {
			t.Errorf("per-layer metric %s reads 0 on every workload", d.Name)
		}
	}

	// The same seed gives the same inputs and the same counts; another
	// seed gives other inputs.
	for _, name := range []string{"link_sm_lsh", "serve_fresh", "serve_revisit"} {
		again := run(name, 1)
		if again.fingerprint != first[name].fingerprint {
			t.Errorf("%s: seed 1 generated different inputs the second time", name)
		}
		for _, d := range perLayer {
			if d.Unit == "count" && repeatable(d.Name) && again.values[d.Name] != first[name].values[d.Name] {
				t.Errorf("%s: %s = %v, then %v on the same seed", name, d.Name,
					first[name].values[d.Name], again.values[d.Name])
			}
		}
	}
	if other := run("link_cab_brute", 2); other.fingerprint == first["link_cab_brute"].fingerprint {
		t.Error("link_cab_brute: seeds 1 and 2 generated the same inputs")
	}

	// Nothing is left behind: no scratch directory, no child process.
	h.close()
	if left, _ := filepath.Glob(filepath.Join(h.base, "run-*")); len(left) != 0 {
		t.Errorf("scratch directories left behind: %v", left)
	}
	procs, _ := filepath.Glob("/proc/[0-9]*/cmdline")
	for _, p := range procs {
		if b, err := os.ReadFile(p); err == nil && bytes.HasPrefix(b, []byte(h.bin)) {
			t.Errorf("child process left behind: %s", bytes.ReplaceAll(b, []byte{0}, []byte{' '}))
		}
	}
}

// TestCleanupAfterFailure checks that a run that fails half way still
// kills its slimd and removes its scratch directory.
func TestCleanupAfterFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs slimd")
	}
	h, err := newHarness()
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	run, err := h.newRun()
	if err != nil {
		t.Fatal(err)
	}
	in, err := generate("serve_fresh", scales["smoke"], 1, run.dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	dataDir, err := run.subdir("data")
	if err != nil {
		t.Fatal(err)
	}
	svc, err := boot(run, in, dataDir, "slimd.log")
	if err != nil {
		t.Fatal(err)
	}
	run.close() // as the deferred close of a failed runWorkload does
	if !svc.proc.exited() {
		t.Error("slimd still runs after its run was closed")
	}
	if _, err := os.Stat(run.dir); !os.IsNotExist(err) {
		t.Errorf("scratch directory %s still exists", run.dir)
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, cpu []float64, pairs float64) string {
		var b strings.Builder
		for k, v := range cpu {
			r := newResult("link_sm_lsh", int64(k+1), false)
			for _, d := range compared {
				r.set(d.Name, 10)
			}
			r.set("cpu_s", v)
			b.WriteString(r.jsonLine(true) + "\n")
		}
		r := newResult("link_sm_lsh", 1, true)
		r.set("candidates.pairs", pairs)
		b.WriteString(r.jsonLine(true) + "\n")
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("a", []float64{10, 10.1, 9.9, 10, 10.05}, 1000)
	verdict := func(other string) (string, int) {
		var out, errb bytes.Buffer
		code := compareFiles(base, other, &out, &errb)
		if errb.Len() != 0 {
			t.Fatalf("compare: %s", errb.String())
		}
		for _, ln := range strings.Split(out.String(), "\n") {
			if f := strings.Fields(ln); len(f) > 2 && f[0] == "link_sm_lsh" && f[1] == "cpu_s" {
				return f[len(f)-1], code
			}
		}
		t.Fatalf("no cpu_s row in:\n%s", out.String())
		return "", 0
	}
	if v, code := verdict(write("same", []float64{10.2, 10, 10.1, 9.95, 10}, 1000)); v != "ok" || code != 0 {
		t.Errorf("equal sets: verdict %s, exit %d", v, code)
	}
	if v, code := verdict(write("slow", []float64{14, 14.1, 13.9, 14, 14.05}, 1000)); v != "regressed" || code != 1 {
		t.Errorf("40%% slower: verdict %s, exit %d", v, code)
	}
	if v, _ := verdict(write("noisy", []float64{6, 12, 10, 16, 8}, 1000)); v != "unresolved" {
		t.Errorf("spread wider than the bound: verdict %s", v)
	}
	if _, code := verdict(write("counts", []float64{10, 10.1, 9.9, 10, 10.05}, 999)); code != 1 {
		t.Error("a differing repeatable count must fail the comparison")
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 37, 4, 7, 29, 11, 16, 22})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v; want 3.5, 31", q1, q3)
	}
}
