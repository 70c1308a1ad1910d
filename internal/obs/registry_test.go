package obs

import (
	"math"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"slim/internal/testenv"
)

// parseExposition splits a Prometheus text exposition into samples,
// failing the test on any line that violates the text-format grammar.
// It returns sample name+labels → value.
func parseExposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	var (
		helpRe   = regexp.MustCompile(`^# HELP [a-zA-Z_:][a-zA-Z0-9_:]* .+$`)
		typeRe   = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram)$`)
		sampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (NaN|[+-]?Inf|[-+0-9.eE]+)$`)
	)
	samples := make(map[string]float64)
	typed := make(map[string]string)
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") {
			if !helpRe.MatchString(line) {
				t.Fatalf("bad HELP line: %q", line)
			}
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			m := typeRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("bad TYPE line: %q", line)
			}
			if _, dup := typed[m[1]]; dup {
				t.Fatalf("duplicate TYPE for %s", m[1])
			}
			typed[m[1]] = m[2]
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("bad sample line: %q", line)
		}
		// Every sample must belong to a declared family (histogram
		// samples append _bucket/_sum/_count to the family name).
		base := m[1]
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if fam := strings.TrimSuffix(base, suf); fam != base && typed[fam] == "histogram" {
				base = fam
				break
			}
		}
		if _, ok := typed[base]; !ok {
			t.Fatalf("sample %q precedes its TYPE declaration", line)
		}
		v, err := strconv.ParseFloat(strings.TrimPrefix(m[len(m)-1], "+"), 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		key := m[1]
		if m[2] != "" {
			key += m[2]
		}
		samples[key] = v
	}
	return samples
}

func scrape(t *testing.T, r *Registry) map[string]float64 {
	t.Helper()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return parseExposition(t, sb.String())
}

func TestExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("slim_test_ops_total", "operations", L("kind", "write"))
	c.Add(7)
	r.Counter("slim_test_ops_total", "operations", L("kind", "read")).Add(2)
	g := r.Gauge("slim_test_depth", "queue depth")
	g.Set(3.5)
	h := r.Histogram("slim_test_latency_seconds", "latency", []float64{0.1, 1, 10})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(100)
	r.CounterFunc("slim_test_func_total", "func counter", func() uint64 { return 42 })
	r.GaugeFunc("slim_test_func_gauge", "func gauge", func() float64 { return -1.25 })
	r.Gauge("slim_test_escaped", "escaped", L("path", `a"b\c`)).Set(1)

	got := scrape(t, r)
	want := map[string]float64{
		`slim_test_ops_total{kind="write"}`:           7,
		`slim_test_ops_total{kind="read"}`:            2,
		`slim_test_depth`:                             3.5,
		`slim_test_latency_seconds_bucket{le="0.1"}`:  1,
		`slim_test_latency_seconds_bucket{le="1"}`:    2,
		`slim_test_latency_seconds_bucket{le="10"}`:   2,
		`slim_test_latency_seconds_bucket{le="+Inf"}`: 3,
		`slim_test_latency_seconds_count`:             3,
		`slim_test_func_total`:                        42,
		`slim_test_func_gauge`:                        -1.25,
		`slim_test_escaped{path="a\"b\\c"}`:           1,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
	if sum := got["slim_test_latency_seconds_sum"]; math.Abs(sum-100.55) > 1e-9 {
		t.Errorf("histogram sum = %v, want 100.55", sum)
	}
}

// TestRegistrationIdempotent: the same name+labels returns the same
// underlying metric, so two callers cannot split one series.
func TestRegistrationIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("slim_same", "")
	b := r.Counter("slim_same", "")
	if a != b {
		t.Fatal("same name+labels returned distinct counters")
	}
	a.Inc()
	if b.Value() != 1 {
		t.Fatal("counters not shared")
	}
	h1 := r.Histogram("slim_h", "", []float64{1, 2})
	h2 := r.Histogram("slim_h", "", []float64{5})
	if h1 != h2 {
		t.Fatal("histogram buckets must be frozen at first registration")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("type mismatch must panic")
		}
	}()
	r.Gauge("slim_same", "")
}

// TestRegistryConcurrent hammers registration, updates, and scrapes from
// many goroutines — the -race gate for the whole package.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("slim_hammer_seconds", "", nil)
	f := NewFreshness(r.Histogram("slim_hammer_fresh_seconds", "", nil))
	var workers, scraper sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 8; i++ {
		workers.Add(1)
		go func(i int) {
			defer workers.Done()
			now := time.Now()
			for j := 0; j < 2000; j++ {
				r.Counter("slim_hammer_total", "", L("worker", strconv.Itoa(i))).Inc()
				r.Gauge("slim_hammer_gauge", "").Set(float64(j))
				h.Observe(float64(j) / 1000)
				seq := f.Acked(now)
				if j%3 == 0 {
					f.Visible(seq, now.Add(time.Millisecond))
				}
				_ = f.Staleness()
			}
		}(i)
	}
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
				var sb strings.Builder
				_ = r.WritePrometheus(&sb)
			}
		}
	}()
	workers.Wait()
	close(stop)
	scraper.Wait()

	got := scrape(t, r)
	total := 0.0
	for i := 0; i < 8; i++ {
		total += got[`slim_hammer_total{worker="`+strconv.Itoa(i)+`"}`]
	}
	if total != 16000 {
		t.Fatalf("hammer counters sum to %v, want 16000", total)
	}
	if got["slim_hammer_seconds_count"] != 16000 {
		t.Fatalf("histogram count = %v, want 16000", got["slim_hammer_seconds_count"])
	}
}

// TestUpdateZeroAllocs gates the hot-path cost contract: counter adds,
// gauge sets, and histogram observations must never touch the heap.
func TestUpdateZeroAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("race-detector instrumentation allocates; gate runs in non-race CI")
	}
	r := NewRegistry()
	c := r.Counter("slim_allocs_total", "")
	g := r.Gauge("slim_allocs_gauge", "")
	h := r.Histogram("slim_allocs_seconds", "", nil)
	f := NewFreshness(h)
	if avg := testing.AllocsPerRun(200, func() { c.Add(1) }); avg != 0 {
		t.Errorf("Counter.Add allocates %v/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() { g.Set(1.5) }); avg != 0 {
		t.Errorf("Gauge.Set allocates %v/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() { h.Observe(0.001) }); avg != 0 {
		t.Errorf("Histogram.Observe allocates %v/op, want 0", avg)
	}
	now := time.Now()
	if avg := testing.AllocsPerRun(200, func() {
		seq := f.Acked(now)
		f.Visible(seq, now)
	}); avg != 0 {
		t.Errorf("Freshness Acked+Visible allocates %v/op, want 0", avg)
	}
}

func TestFreshness(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("slim_fresh_seconds", "", []float64{0.5, 2})
	f := NewFreshness(h)
	t0 := time.Now().Add(-3 * time.Second)
	s1 := f.Acked(t0)
	s2 := f.Acked(t0.Add(time.Second))
	if f.Staleness() < 2.9 {
		t.Fatalf("staleness = %v, want ~3s", f.Staleness())
	}
	if f.AckedSeq() != s2 || f.VisibleSeq() != 0 {
		t.Fatalf("watermarks = %d/%d, want %d/0", f.AckedSeq(), f.VisibleSeq(), s2)
	}
	// Mark only the first batch visible: one observation, staleness now
	// measured from the second batch.
	f.Visible(s1, t0.Add(time.Second))
	if h.Count() != 1 {
		t.Fatalf("observations = %d, want 1", h.Count())
	}
	if st := f.Staleness(); st < 1.9 || st > 2.5 {
		t.Fatalf("staleness = %v, want ~2s", st)
	}
	f.Visible(s2, t0.Add(2*time.Second))
	if h.Count() != 2 {
		t.Fatalf("observations = %d, want 2", h.Count())
	}
	if f.Staleness() != 0 {
		t.Fatalf("drained staleness = %v, want 0", f.Staleness())
	}
	if f.VisibleSeq() != s2 {
		t.Fatalf("visible = %d, want %d", f.VisibleSeq(), s2)
	}
	// Overflow: past the cap a batch folds into the newest entry, so once
	// every tracked batch is visible the folded ones still read an age
	// (the newest tracked batch's), never 0.
	for i := 0; i < freshnessCap-1; i++ {
		f.Acked(t0)
	}
	lastTracked := f.Acked(t0.Add(time.Second))
	for i := 0; i < 10; i++ {
		f.Acked(time.Now())
	}
	f.Visible(lastTracked, time.Now())
	if st := f.Staleness(); st < 1.9 || st > 2.5 {
		t.Fatalf("staleness with 10 folded batches unpublished = %v, want ~2s", st)
	}
	f.Visible(f.Mark(), time.Now())
	if f.Staleness() != 0 {
		t.Fatal("visible watermark must drain tracked entries after overflow")
	}
}
