package obs

import (
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sync"
	"time"
)

// memStatsCache memoizes runtime.ReadMemStats across the runtime gauges:
// a /metrics scrape renders every gauge in one pass, and ReadMemStats
// stops the world, so the heap and GC gauges share one read per scrape
// instead of paying the pause once each.
type memStatsCache struct {
	mu   sync.Mutex
	at   time.Time
	stat runtime.MemStats
}

func (c *memStatsCache) get() runtime.MemStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	if now := time.Now(); now.Sub(c.at) > time.Second {
		runtime.ReadMemStats(&c.stat)
		c.at = now
	}
	return c.stat
}

// RegisterRuntime registers the process-level gauges every slim service
// exports next to its domain metrics: a constant slim_build_info gauge
// whose labels carry the build identity (the standard Prometheus info
// pattern), plus goroutine, heap and GC gauges read from the Go runtime
// at scrape time.
func RegisterRuntime(reg *Registry) {
	version, goVersion, revision := "unknown", runtime.Version(), "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		if bi.Main.Version != "" && bi.Main.Version != "(devel)" {
			version = bi.Main.Version
		}
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				revision = s.Value
			}
		}
	}
	reg.Gauge("slim_build_info",
		"Build identity of the running binary; the constant value 1 carries the labels.",
		L("version", version), L("goversion", goVersion), L("vcs_revision", revision)).Set(1)

	reg.GaugeFunc("slim_go_goroutines",
		"Live goroutines in the process.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	mem := &memStatsCache{}
	reg.GaugeFunc("slim_go_heap_alloc_bytes",
		"Bytes of allocated heap objects: reachable ones plus dead ones not yet swept.",
		func() float64 { return float64(mem.get().HeapAlloc) })
	reg.GaugeFunc("slim_go_gc_pause_total_seconds",
		"Cumulative stop-the-world GC pause time.",
		func() float64 { return float64(mem.get().PauseTotalNs) / 1e9 })
	reg.GaugeFunc("slim_go_heap_live_bytes",
		"Heap bytes the last GC cycle marked live.",
		func() float64 { return float64(HeapLiveBytes()) })
	reg.GaugeFunc("slim_go_heap_goal_bytes",
		"Heap size at which the next GC cycle is due to finish.",
		func() float64 { return float64(runtimeUint64("/gc/heap/goal:bytes")) })
	reg.GaugeFunc("slim_go_memory_limit_bytes",
		"Soft memory limit the collector paces the heap against (math.MaxInt64 when none is set).",
		func() float64 { return float64(runtimeUint64("/gc/gomemlimit:bytes")) })
	reg.GaugeFunc("slim_go_gc_cpu_seconds_total",
		"Cumulative CPU time the runtime estimates it spent on garbage collection.",
		func() float64 {
			s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
			metrics.Read(s)
			return s[0].Value.Float64()
		})
}

// HeapLiveBytes returns the heap bytes the last GC cycle marked live
// (runtime/metrics /gc/heap/live:bytes): the live set that paces the
// next cycle's goal.
func HeapLiveBytes() uint64 { return runtimeUint64("/gc/heap/live:bytes") }

// NonHeapBytes returns what the runtime has mapped for anything but the
// heap's own pages (runtime/metrics /memory/classes/total less its heap
// objects, unused, free and released classes): goroutine stacks, runtime
// metadata and the rest a memory limit counts beside the heap.
func NonHeapBytes() uint64 {
	s := []metrics.Sample{
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
		{Name: "/memory/classes/heap/free:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
	}
	metrics.Read(s)
	n := s[0].Value.Uint64()
	for _, heap := range s[1:] {
		n -= heap.Value.Uint64()
	}
	return n
}

// runtimeUint64 reads one uint64 runtime metric. runtime/metrics does
// not stop the world, so these gauges skip the ReadMemStats cache.
func runtimeUint64(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
