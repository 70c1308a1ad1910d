// Package testenv holds what tests in several packages need to know about
// the binary they run in.
//
// RaceEnabled tells whether it was built with the race detector. Under it
// sync.Pool drops items at random, instrumentation allocates inside
// otherwise allocation-free paths, and everything runs several times
// slower and larger — so zero-allocation gates, heap budgets and throughput
// floors skip themselves and run in CI's uninstrumented steps instead.
package testenv

import "runtime"

// LiveHeap returns the bytes of heap still reachable after a full
// collection: the before reading of the footprint tests, whose after
// reading is Retained.
func LiveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// Retained returns the bytes of live heap gained since the LiveHeap
// reading before, signed: a heap that shrank in between reads negative,
// where the difference of the two unsigned readings would wrap to about
// 1.8e19 and pass any ratio or fail any budget for the wrong reason.
func Retained(before uint64) int64 {
	return int64(LiveHeap()) - int64(before)
}

// LeastAllocated runs f three times and returns the fewest bytes one run
// allocated. TotalAlloc also counts what other goroutines allocate
// meanwhile (a fuzz worker's own traffic, a goroutine an earlier test left
// behind), so a budget on a deterministic f is judged on its least run.
func LeastAllocated(f func()) uint64 {
	least := ^uint64(0)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}
