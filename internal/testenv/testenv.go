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
// collection: the before/after reading of the footprint tests.
func LiveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
