// Package par holds the one fan-out primitive the linker's CPU-bound
// per-entity and per-pair passes share, so worker policy cannot drift
// between scoring, history construction and the candidate index's first
// fill.
package par

import "sync"

// Chunks partitions [0, total) into at most workers contiguous ranges
// (workers below 1 means 1) and calls fn(w, lo, hi) concurrently,
// returning after all calls finish. Every index belongs to exactly one
// range and ranges ascend with w, so a caller that writes results by index
// (or concatenates per-w results in w order) gets output independent of
// scheduling.
func Chunks(workers, total int, fn func(w, lo, hi int)) {
	workers = max(1, min(workers, total))
	chunk := (total + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, total)
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			fn(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}
