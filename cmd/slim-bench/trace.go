package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function (the program itself carries no spans).
type span struct {
	Name   string        `json:"name"`
	Parent string        `json:"parent,omitempty"`
	Start  time.Time     `json:"start"`
	Dur    time.Duration `json:"dur_ns"`
}

// tracer keeps the spans of one traced pass in memory; nothing is
// written until the pass is over.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{} }

type openSpan struct {
	tr           *tracer
	name, parent string
	start        time.Time
}

func (t *tracer) begin(name, parent string) *openSpan {
	return &openSpan{tr: t, name: name, parent: parent, start: time.Now()}
}

func (o *openSpan) end() time.Duration {
	d := time.Since(o.start)
	o.tr.record(span{Name: o.name, Parent: o.parent, Start: o.start, Dur: d})
	return d
}

// child records a span whose duration the layer measured itself (a run
// record's stage time, the candidate index's build time).
func (t *tracer) child(name, parent string, d time.Duration) {
	t.record(span{Name: name, Parent: parent, Dur: d})
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// seconds is the total duration of the spans called name.
func (t *tracer) seconds(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			d += s.Dur
		}
	}
	return d.Seconds()
}

// selfSeconds is, per span name, its total duration minus the part its
// child spans cover.
func (t *tracer) selfSeconds() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := make(map[string]float64)
	for _, s := range t.spans {
		self[s.Name] += s.Dur.Seconds()
		if s.Parent != "" {
			self[s.Parent] -= s.Dur.Seconds()
		}
	}
	return self
}

// writeTo appends the spans to path as JSON lines.
func (t *tracer) writeTo(path string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	return f.Close()
}
