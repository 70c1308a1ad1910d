package obs

import (
	"runtime"
	"testing"
)

// TestRuntimeHeapGauges: the live and goal gauges read runtime/metrics at
// scrape time; after a collection the live heap is positive and the goal
// lies above it.
func TestRuntimeHeapGauges(t *testing.T) {
	r := NewRegistry()
	RegisterRuntime(r)
	runtime.GC()
	got := scrape(t, r)
	live, goal := got["slim_go_heap_live_bytes"], got["slim_go_heap_goal_bytes"]
	if live <= 0 || goal <= live {
		t.Errorf("slim_go_heap_live_bytes %v, slim_go_heap_goal_bytes %v: want 0 < live < goal", live, goal)
	}
	for _, name := range []string{"slim_go_heap_alloc_bytes", "slim_go_gc_pause_total_seconds", "slim_go_goroutines", "slim_go_memory_limit_bytes"} {
		if _, ok := got[name]; !ok {
			t.Errorf("%s absent from the exposition", name)
		}
	}
	// The collection above ran on this process's CPU.
	if cpu := got["slim_go_gc_cpu_seconds_total"]; cpu <= 0 {
		t.Errorf("slim_go_gc_cpu_seconds_total %v after a collection, want > 0", cpu)
	}
	if n := NonHeapBytes(); n == 0 || n >= runtimeUint64("/memory/classes/total:bytes") {
		t.Errorf("NonHeapBytes %d: want a positive part of the runtime's mapped memory", n)
	}
}
