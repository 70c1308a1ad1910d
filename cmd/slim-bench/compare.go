package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// runSet is the content of one -out file: per workload and metric, the
// values the untraced runs measured and, per seed, the counts of the
// traced runs.
type runSet struct {
	untraced map[string]map[string][]float64         // workload → metric → values
	counts   map[string]map[int64]map[string]float64 // workload → seed → metric → value
}

func loadRuns(path string) (*runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rs := &runSet{
		untraced: make(map[string]map[string][]float64),
		counts:   make(map[string]map[int64]map[string]float64),
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		if l.Workload == "" || l.Trace == nil {
			return nil, fmt.Errorf("%s:%d: not a line written by -out", path, n)
		}
		if !*l.Trace {
			m := rs.untraced[l.Workload]
			if m == nil {
				m = make(map[string][]float64)
				rs.untraced[l.Workload] = m
			}
			for name, v := range l.Metrics {
				m[name] = append(m[name], v.Value)
			}
			continue
		}
		bySeed := rs.counts[l.Workload]
		if bySeed == nil {
			bySeed = make(map[int64]map[string]float64)
			rs.counts[l.Workload] = bySeed
		}
		vals := make(map[string]float64)
		for name, v := range l.Metrics {
			if v.Unit == "count" && repeatable(name) {
				vals[name] = v.Value
			}
		}
		bySeed[l.Seed] = vals
	}
	return rs, sc.Err()
}

// repeatable reports whether a count must repeat exactly for one seed:
// the ones the traced pass produces, where the harness decides when each
// relink runs. The black-box counts depend on how slimd's debounce
// coalesced the requests.
func repeatable(name string) bool {
	return strings.HasPrefix(name, "engine.") || strings.HasPrefix(name, "candidates.") ||
		strings.HasPrefix(name, "similarity.") || strings.HasPrefix(name, "matching.") ||
		name == "slim.tail_full_rebuilds"
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(vals, n=4) gives them (the exclusive method), so
// that -compare and the driver agree on what a spread is.
func quartiles(vals []float64) (q1, q3 float64) {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return median(s), median(s)
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4 // outside [0, 4] it extrapolates, as Python does
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(vals []float64) float64 {
	med := median(vals)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(vals)
	return (q3 - q1) / med
}

// compareFiles prints one row per (workload, compared metric): ok when
// b's median is no worse than a's by more than the metric's bound,
// regressed when it is, unresolved when either side's spread is wider
// than the bound. Then one row per workload on whether the repeatable
// counts of equal seeds are equal. It returns 1 if any row regressed or
// any count differs.
func compareFiles(a, b string, stdout, stderr io.Writer) int {
	ra, err := loadRuns(a)
	if err != nil {
		fmt.Fprintln(stderr, "slim-bench:", err)
		return 1
	}
	rb, err := loadRuns(b)
	if err != nil {
		fmt.Fprintln(stderr, "slim-bench:", err)
		return 1
	}
	return compareSets(ra, rb, stdout)
}

func compareSets(ra, rb *runSet, stdout io.Writer) int {
	code := 0
	fmt.Fprintf(stdout, "%-16s %-16s %12s %12s %8s %8s %7s  %s\n",
		"workload", "metric", "median a", "median b", "change", "spread", "bound", "verdict")
	for _, w := range workloads {
		for _, d := range compared {
			va, vb := ra.untraced[w.Name][d.Name], rb.untraced[w.Name][d.Name]
			if len(va) == 0 || len(vb) == 0 || median(va) == 0 {
				continue // not measured, or not a metric of this workload
			}
			ma, mb := median(va), median(vb)
			worse := (mb - ma) / ma
			if d.Better == "higher" {
				worse = -worse
			}
			sp := max(spread(va), spread(vb))
			verdict := "ok"
			switch {
			case sp > d.Bound:
				verdict = "unresolved"
			case worse > d.Bound:
				verdict = "regressed"
				code = 1
			}
			fmt.Fprintf(stdout, "%-16s %-16s %12.5g %12.5g %+7.1f%% %7.1f%% %6.0f%%  %s\n",
				w.Name, d.Name, ma, mb, (mb-ma)/ma*100, sp*100, d.Bound*100, verdict)
		}
	}
	for _, w := range workloads {
		seeds, differ := 0, []string{}
		for seed, ca := range ra.counts[w.Name] {
			cb, ok := rb.counts[w.Name][seed]
			if !ok {
				continue
			}
			seeds++
			for name, v := range ca {
				if cb[name] != v {
					differ = append(differ, fmt.Sprintf("%s seed %d: %.0f vs %.0f", name, seed, v, cb[name]))
				}
			}
		}
		if seeds == 0 {
			continue
		}
		sort.Strings(differ)
		if len(differ) == 0 {
			fmt.Fprintf(stdout, "%-16s counts of %d traced seed(s): equal\n", w.Name, seeds)
			continue
		}
		code = 1
		fmt.Fprintf(stdout, "%-16s counts of %d traced seed(s): DIFFER\n", w.Name, seeds)
		for _, d := range differ {
			fmt.Fprintf(stdout, "    %s\n", d)
		}
	}
	return code
}
