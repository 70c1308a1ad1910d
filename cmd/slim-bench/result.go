package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload reports. values holds every
// metric measured; the printed JSON line carries the subset the contract
// asks for (end-to-end with tracing off, per-layer with tracing on).
type result struct {
	Workload string
	Seed     int64
	Trace    bool
	// Attempted counts requests sent, processes run to completion and
	// visibility waits; Failed the ones that missed: a non-2xx answer, a
	// request not link-visible within the limit, a non-zero exit.
	Attempted int
	Failed    int
	// violations are failed output checks; any makes the run incorrect.
	violations []string
	values     map[string]float64
	// fingerprint identifies the generated inputs (see inputs).
	fingerprint uint64
	// tracers hold the spans of the traced passes until the run ends.
	tracers []*tracer
}

func newResult(workload string, seed int64, trace bool) *result {
	return &result{Workload: workload, Seed: seed, Trace: trace, values: make(map[string]float64)}
}

func (r *result) set(name string, v float64) { r.values[name] = v }
func (r *result) add(name string, v float64) { r.values[name] += v }

func (r *result) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

func (r *result) correct() bool { return len(r.violations) == 0 }

// reported returns the metric table a run prints: the end-to-end metrics
// with tracing off, the per-layer metrics with tracing on. A per-layer
// metric a workload does not exercise reads 0.
func (r *result) reported() []metricDef {
	if r.Trace {
		return perLayer
	}
	return endToEnd
}

// line is the one JSON object the contract wants last on standard output.
// -out appends it to a file with the run's identity and with every
// metric the run measured, whichever table it belongs to.
type line struct {
	Workload  string                 `json:"workload,omitempty"`
	Seed      int64                  `json:"seed,omitempty"`
	Trace     *bool                  `json:"trace,omitempty"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *result) line(identity bool) line {
	l := line{
		Correct:   r.correct(),
		Attempted: max(r.Attempted, 1),
		Failed:    r.Failed,
		Metrics:   make(map[string]metricValue),
	}
	for _, d := range r.reported() {
		l.Metrics[d.Name] = metricValue{Value: r.values[d.Name], Unit: d.Unit}
	}
	if identity {
		trace := r.Trace
		l.Workload, l.Seed, l.Trace = r.Workload, r.Seed, &trace
		for _, d := range append(endToEnd[:len(endToEnd):len(endToEnd)], perLayer...) {
			if v, ok := r.values[d.Name]; ok {
				l.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
			}
		}
	}
	return l
}

// printTable writes every metric the run measured by name with its unit:
// the end-to-end ones, then the per-layer ones that do not read 0 (the
// black-box figures on any run, the layer budget on a traced one).
func (r *result) printTable(w io.Writer) {
	fmt.Fprintf(w, "== %s seed=%d trace=%v (attempted %d, failed %d)\n",
		r.Workload, r.Seed, r.Trace, r.Attempted, r.Failed)
	for _, d := range endToEnd {
		fmt.Fprintf(w, "  %-32s %16s %s\n", d.Name, formatValue(r.values[d.Name]), d.Unit)
	}
	fmt.Fprintln(w, "  -- per-layer (those that read 0 here are not listed)")
	for _, d := range perLayer {
		if v := r.values[d.Name]; v != 0 {
			fmt.Fprintf(w, "  %-32s %16s %s\n", d.Name, formatValue(v), d.Unit)
		}
	}
	for _, v := range r.violations {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", v)
	}
}

func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.6g", v)
}

func (r *result) jsonLine(identity bool) string {
	b, err := json.Marshal(r.line(identity))
	if err != nil {
		// Only a NaN or an infinity can fail here: a harness bug.
		panic(fmt.Sprintf("slim-bench: encoding result: %v", err))
	}
	return string(b)
}

// quantile interpolates linearly between the order statistics of vals
// (the "inclusive" method, as numpy's default); q in [0, 1].
func quantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(vals []float64) float64 { return quantile(vals, 0.5) }
