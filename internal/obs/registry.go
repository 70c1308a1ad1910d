// Package obs is slimd's dependency-free metrics subsystem: atomic
// counters, gauges, and fixed-bucket histograms collected in a Registry
// and exposed in the Prometheus text format (GET /metrics).
//
// Design constraints, in order:
//
//  1. Hot-path cost. Counter.Add, Gauge.Set, and Histogram.Observe are
//     single atomic operations over preallocated state — no maps, no
//     locks, no allocation — so they are safe to call from the ingest
//     and relink paths that are gated at 0 allocs/op. Label rendering
//     and series lookup happen once, at registration time; hot paths
//     hold a *Counter / *Histogram pointer, never a name.
//  2. One source of truth. Components that already keep atomic counters
//     for /v1/stats register them as CounterFunc / GaugeFunc closures:
//     both /v1/stats and /metrics then read the same underlying atomic,
//     so the two surfaces can never disagree.
//  3. No dependencies. Only the standard library; the exposition writer
//     emits the subset of the Prometheus text format every scraper
//     understands (# HELP, # TYPE, counter/gauge/histogram samples).
//
// All types are safe for concurrent use.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefBuckets are the default latency buckets in seconds (250µs .. 10s),
// tuned for the service's paths: scoring and WAL appends live in the
// sub-millisecond buckets, relinks and snapshots in the upper ones.
var DefBuckets = []float64{
	0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Label is one metric dimension, rendered as name{key="value"}.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds delta (CAS loop; gauges are not hot-path metrics).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a fixed-bucket histogram: bucket bounds are frozen at
// registration, so Observe is a bounded scan plus two atomic adds —
// no allocation, no locks.
type Histogram struct {
	bounds  []float64 // upper bounds, ascending; +Inf is implicit
	counts  []atomic.Uint64
	sumBits atomic.Uint64
	count   atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	bs := make([]float64, len(bounds))
	copy(bs, bounds)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Uint64, len(bs)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveSince records the seconds elapsed since t.
func (h *Histogram) ObserveSince(t time.Time) { h.Observe(time.Since(t).Seconds()) }

// Count returns how many values have been observed.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// series is one labeled sample stream within a family.
type series struct {
	labels string // pre-rendered `{k="v",...}` or ""
	kind   kind
	c      *Counter
	g      *Gauge
	h      *Histogram
	cf     func() uint64
	gf     func() float64
}

type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// family groups every series sharing one metric name.
type family struct {
	name, help string
	kind       kind
	series     []*series
}

// Registry holds metric families and renders them in registration order.
// Registration takes a lock and may allocate; the returned metric
// pointers are lock-free to update.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Counter registers (or finds) the counter name{labels...}. Registering
// the same name with the same labels returns the existing counter;
// reusing a name with a different metric type panics.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	var c *Counter
	r.getOrCreate(name, help, kindCounter, func(s *series) {
		if s.c == nil {
			s.c = &Counter{}
		}
		c = s.c
	}, labels)
	return c
}

// Gauge registers (or finds) the gauge name{labels...}.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	var g *Gauge
	r.getOrCreate(name, help, kindGauge, func(s *series) {
		if s.g == nil {
			s.g = &Gauge{}
		}
		g = s.g
	}, labels)
	return g
}

// Histogram registers (or finds) the histogram name{labels...} with the
// given bucket upper bounds (nil = DefBuckets). Bounds are fixed for the
// life of the series.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	if bounds == nil {
		bounds = DefBuckets
	}
	var h *Histogram
	r.getOrCreate(name, help, kindHistogram, func(s *series) {
		if s.h == nil {
			s.h = newHistogram(bounds)
		}
		h = s.h
	}, labels)
	return h
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — the bridge for components that already keep their own atomics
// (the same atomic feeds /v1/stats, so the surfaces cannot disagree).
// fn must be safe for concurrent use and must not call back into the
// registry.
func (r *Registry) CounterFunc(name, help string, fn func() uint64, labels ...Label) {
	r.getOrCreate(name, help, kindCounter, func(s *series) {
		if s.cf == nil {
			s.cf = fn
		}
	}, labels)
}

// GaugeFunc registers a gauge computed by fn at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	r.getOrCreate(name, help, kindGauge, func(s *series) {
		if s.gf == nil {
			s.gf = fn
		}
	}, labels)
}

// getOrCreate finds or registers the series name{labels}. init runs
// under the registry lock on both the found and the created series, so
// constructors attach their instrument (idempotently) without racing a
// concurrent scrape's reads of the series fields.
func (r *Registry) getOrCreate(name, help string, k kind, init func(*series), labels []Label) *series {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	ls := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: k}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	if f.kind != k {
		panic(fmt.Sprintf("obs: metric %s registered as %s, requested as %s", name, f.kind, k))
	}
	for _, s := range f.series {
		if s.labels == ls {
			if init != nil {
				init(s)
			}
			return s
		}
	}
	s := &series{labels: ls, kind: k}
	if init != nil {
		init(s)
	}
	f.series = append(f.series, s)
	return s
}

// validName checks the Prometheus metric-name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// renderLabels renders labels to the canonical `{k="v",...}` form once,
// at registration time, with values escaped per the text format.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}
