package slim

import (
	"fmt"
	"runtime"
	"testing"

	"slim/internal/candidates"
	"slim/internal/history"
	"slim/internal/model"
	"slim/internal/testenv"
)

// sideTable returns the entity table of a side with n entities.
func sideTable(prefix string, n int) *history.Ordinals {
	d := model.Dataset{Name: prefix}
	for k := 0; k < n; k++ {
		d.Records = append(d.Records, NewRecord(EntityID(fmt.Sprintf("%s-%05d", prefix, k)), 37.5, -122.3, 1_200_000_000))
	}
	return history.Build(&d, model.Windowing{WidthSeconds: 900}, 12).Ordinals()
}

// TestEdgeStoreResidentBytesEstimate holds EdgeStoreStats.ResidentBytes —
// slim_edge_store_resident_bytes on /metrics — to within 2× of what a
// 20k-edge store actually retains after a full rescore, a materialisation
// and a delta update that touches a tenth of the edges.
func TestEdgeStoreResidentBytesEstimate(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("heap budgets are meaningless under the race detector")
	}
	const nE, nI = 200, 100
	idsE, idsI := sideTable("e", nE), sideTable("i", nI)
	before := testenv.LiveHeap()
	es := newEdgeStore(idsE, idsI)
	full := make([]scoredPair, 0, nE*nI)
	for u := uint32(0); u < nE; u++ {
		for v := uint32(0); v < nI; v++ {
			full = append(full, scoredPair{key: candidates.Key(u, v), score: 1 + float64(u*nI+v)})
		}
	}
	es.resetFull(full, 1)
	var pairs []uint64
	var scores []float64
	for k := 0; k < len(full); k += 10 {
		pairs, scores = append(pairs, full[k].key), append(scores, full[k].score+0.5)
	}
	es.apply(pairs, scores, 2)
	links := es.materialize()
	full, pairs, scores = nil, nil, nil
	after := testenv.LiveHeap()

	if len(links) != nE*nI {
		t.Fatalf("store holds %d edges, want %d", len(links), nE*nI)
	}
	measured, estimate := int64(after-before), es.statsSnapshot().ResidentBytes
	t.Logf("%d edges: measured %d B (%.1f per edge), estimated %d B (%d per edge)",
		len(links), measured, float64(measured)/float64(len(links)), estimate, edgePairBytes)
	if estimate > 2*measured || 2*estimate < measured {
		t.Errorf("ResidentBytes estimate %d is not within 2x of the measured %d", estimate, measured)
	}
	runtime.KeepAlive(es)
}
