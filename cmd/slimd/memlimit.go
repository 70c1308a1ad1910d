package main

import (
	"runtime/debug"
	"unsafe"

	"slim"
	"slim/internal/engine"
	"slim/internal/obs"
)

// The heap's pacing. GOGC stays at its default, which lets the heap grow
// to twice what the last cycle marked; slimd also sets a soft memory
// limit sized from what the engine holds, which can only bring a
// collection earlier. h and A are constants, not flags, and an
// operator's GOMEMLIMIT stays a ceiling.
const (
	// heapHeadroom is h: the share of the engine's held bytes the heap may
	// grow past them before a collection is due.
	heapHeadroom = 0.25
	// relinkAllowance is A: room for a relink's transient garbage (the
	// drained batch, a rescore's per-worker edge parts, the links a
	// publish materialises) on top of the headroom.
	relinkAllowance = 4 << 20
)

// memoryLimit is the rule: the runtime's non-heap bytes, plus (1 + h)
// times the bytes the engine holds, plus A, and never above the
// operator's ceiling (math.MaxInt64 when GOMEMLIMIT is unset).
func memoryLimit(nonHeap, held, ceiling int64) int64 {
	return min(nonHeap+held+int64(heapHeadroom*float64(held))+relinkAllowance, ceiling)
}

// heldBytes is what the engine holds as its stats report it: the
// history stores and entity tables, the candidate index, the edge store,
// and the pending ingest buffers at one record struct a record.
func heldBytes(st engine.Stats) int64 {
	b := int64(st.PendingRecords) * int64(unsafe.Sizeof(slim.Record{}))
	if h := st.Histories; h != nil {
		b += h.ScoringE + h.ScoringI + h.SignatureE + h.SignatureI + h.OrdinalsE + h.OrdinalsI
	}
	if st.CandidateIndex != nil {
		b += st.CandidateIndex.ResidentBytes
	}
	if st.EdgeStore != nil {
		b += st.EdgeStore.ResidentBytes
	}
	return b
}

// paceHeap is the one place slimd sets the memory limit: derived from the
// engine's stats, never above ceiling, the limit the process started
// with (the operator's GOMEMLIMIT, or math.MaxInt64 when none was set).
func paceHeap(st engine.Stats, ceiling int64) {
	debug.SetMemoryLimit(memoryLimit(int64(obs.NonHeapBytes()), heldBytes(st), ceiling))
}
