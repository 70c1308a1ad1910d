package candidates

import (
	"fmt"
	"testing"

	"slim/internal/history"
	"slim/internal/model"
)

// The op encoding of FuzzIndexUpdate: a byte with the high bit set is an
// Update. Any other byte b0 names entity (b0>>1)&15 of side b0&1. With bit
// 6 set it reports that entity dirty without adding a record (an
// over-report: the entity is unchanged, or the side has never seen it and
// the report names an ordinal no table assigned). Otherwise it adds one
// record to the entity and takes two more bytes: row int8(b1), and b2 whose
// low three bits pick one of eight cells and whose next two pick the row's
// window.
const (
	fuzzUpdate = 0x80
	fuzzReport = 0x40
)

// fuzzAdd encodes one record op.
func fuzzAdd(side, entity, row, window, cell int) []byte {
	return []byte{byte(entity<<1 | side), byte(int8(row)), byte(window<<3 | cell)}
}

// fuzzMark encodes one report op.
func fuzzMark(side, entity int) byte { return byte(fuzzReport | entity<<1 | side) }

// fuzzSeeds are the shapes of the index's hand-written delta tests, as op
// sequences.
func fuzzSeeds() [][]byte {
	var countOnly, rangeGrowth, silent, bothEnds, overReport []byte
	// Count-only churn: e0 and i0 agree in every row; a heavier cell then
	// moves e0's first band while the later band still collides.
	for row := 0; row < 8; row++ {
		countOnly = append(countOnly, fuzzAdd(0, 0, row, 0, row%8)...)
		countOnly = append(countOnly, fuzzAdd(1, 0, row, 0, row%8)...)
	}
	countOnly = append(countOnly, fuzzUpdate)
	for n := 0; n < 3; n++ {
		countOnly = append(countOnly, fuzzAdd(0, 0, 0, n+1, 7)...)
	}
	countOnly = append(countOnly, fuzzUpdate)
	// Range growth: the data's first row moves one earlier and its last
	// past a band boundary, on both sides, and a new entity arrives.
	for e := 0; e < 8; e++ {
		for row := 10; row < 16; row++ {
			rangeGrowth = append(rangeGrowth, fuzzAdd(0, e, row, e%4, e%3)...)
			rangeGrowth = append(rangeGrowth, fuzzAdd(1, e, row, e%4, e%3)...)
		}
	}
	rangeGrowth = append(rangeGrowth, fuzzUpdate)
	rangeGrowth = append(rangeGrowth, fuzzAdd(0, 2, 9, 0, 0)...)
	rangeGrowth = append(rangeGrowth, fuzzAdd(0, 5, 17, 0, 1)...)
	rangeGrowth = append(rangeGrowth, fuzzAdd(1, 5, 17, 1, 1)...)
	rangeGrowth = append(rangeGrowth, fuzzAdd(1, 7, 9, 1, 2)...)
	rangeGrowth = append(rangeGrowth, fuzzAdd(1, 12, 9, 2, 0)...)
	rangeGrowth = append(rangeGrowth, fuzzUpdate)
	// Silent entities: e0 and i0 observed only in row 0, in different
	// cells, while a third entity stretches the data over later bands.
	silent = append(silent, fuzzAdd(0, 0, 0, 0, 1)...)
	silent = append(silent, fuzzAdd(0, 1, 4, 0, 5)...)
	silent = append(silent, fuzzAdd(1, 0, 0, 0, 3)...)
	silent = append(silent, fuzzUpdate)
	// Both endpoints: six entities a side over the same rows, then bursts
	// that re-sign entities of both sides over a handful of cells.
	for side := 0; side < 2; side++ {
		for e := 0; e < 6; e++ {
			bothEnds = append(bothEnds, fuzzAdd(side, e, 0, 0, 0)...)
			bothEnds = append(bothEnds, fuzzAdd(side, e, 7, 3, 0)...)
		}
	}
	bothEnds = append(bothEnds, fuzzUpdate)
	for burst := 0; burst < 12; burst++ {
		for k := 0; k < 4; k++ {
			bothEnds = append(bothEnds, fuzzAdd(k%2, (burst+k)%6, (burst*3+k)%8, k, (burst+k)%3)...)
		}
		bothEnds = append(bothEnds, fuzzUpdate)
	}
	// Over-reporting: four entities a side, then Updates whose reports
	// name unchanged entities and ones the side has never seen, alone and
	// beside a real change.
	for side := 0; side < 2; side++ {
		for e := 0; e < 4; e++ {
			overReport = append(overReport, fuzzAdd(side, e, e%2, 0, e%3)...)
		}
	}
	overReport = append(overReport, fuzzUpdate, fuzzMark(0, 1), fuzzMark(1, 9), fuzzUpdate)
	overReport = append(overReport, fuzzMark(1, 2), fuzzMark(0, 12))
	overReport = append(overReport, fuzzAdd(0, 3, 1, 2, 4)...)
	overReport = append(overReport, fuzzUpdate)
	return [][]byte{countOnly, rangeGrowth, silent, bothEnds, overReport}
}

// FuzzIndexUpdate drives the index with a fuzzed sequence of record adds
// and Updates over two small signature stores, sixteen entities a side
// and few buckets, so pairs keep entering and leaving the set, with
// over-reported entities in the dirty sets. After every Update, Pairs()
// must equal the batch oracle's set, the Delta the exact set difference
// (Dirty naming every kept pair of a reported entity), and the bucket
// counts of Stats and Explain a recount from the batch oracle.
func FuzzIndexUpdate(f *testing.F) {
	for _, seed := range fuzzSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 600 {
			ops = ops[:600]
		}
		p := Params{Threshold: 0.3, StepWindows: 4, SpatialLevel: level, NumBuckets: 16}
		se, si := sigStore("E", nil, p), sigStore("I", nil, p)
		stores := [2]*history.Store{se, si}
		x := New(se, si, p)
		dirty := [2]map[uint32]struct{}{{}, {}}
		update := func(step int) {
			before := named(se, si, x.Pairs())
			burstE, burstI := reported(se, dirty[sideE]), reported(si, dirty[sideI])
			d := x.Update(dirty[sideE], dirty[sideI])
			name := fmt.Sprintf("update %d", step)
			requireDeltaExact(t, name, se, si, d, before, named(se, si, x.Pairs()), burstE, burstI)
			requireParity(t, x, se, si, p, name)
			requireBucketCounts(t, x, se, si, p, name)
			dirty = [2]map[uint32]struct{}{{}, {}}
		}
		step := 0
		for len(ops) > 0 {
			op := ops[0]
			if op&fuzzUpdate != 0 || op&fuzzReport == 0 && len(ops) < 3 {
				update(step)
				step++
				ops = ops[1:]
				continue
			}
			side := int(op & 1)
			id := model.EntityID(fmt.Sprintf("%c%d", "ei"[side], op>>1&15))
			if op&fuzzReport != 0 {
				ord, ok := stores[side].Ordinals().Lookup(id)
				if !ok {
					ord = 1 << 30
				}
				dirty[side][ord] = struct{}{}
				ops = ops[1:]
				continue
			}
			unix := (int64(int8(ops[1]))*int64(p.StepWindows) + int64(ops[2]>>3&3)) * wnd.WidthSeconds
			r := rec(string(id), 37.6+0.05*float64(ops[2]&7), -122.4, unix)
			dirty[side][stores[side].Add(r)] = struct{}{}
			ops = ops[3:]
		}
		update(step)
	})
}

// requireBucketCounts checks Stats' bucket and membership counts and every
// collision's bucket sizes in Explain against a recount from the batch
// oracle.
func requireBucketCounts(t *testing.T, x *Index, se, si *history.Store, p Params, step string) {
	t.Helper()
	buckets := batchBuckets(se, si, p)
	members := 0
	for _, n := range buckets {
		members += n[sideE] + n[sideI]
	}
	if st := x.Stats(); st.Buckets != len(buckets) || st.Memberships != members {
		t.Fatalf("%s: Stats buckets/memberships = %d/%d, batch recount %d/%d", step, st.Buckets, st.Memberships, len(buckets), members)
	}
	for u := uint32(0); u <= uint32(se.Ordinals().Len()); u++ {
		for v := uint32(0); v <= uint32(si.Ordinals().Len()); v++ {
			for _, bc := range x.Explain(u, v).Collisions {
				if n := buckets[bandKey{band: bc.Band, hash: uint64(bc.Hash)}]; bc.BucketE != n[sideE] || bc.BucketI != n[sideI] {
					t.Fatalf("%s: Explain(%d,%d) band %d: bucket_e/bucket_i = %d/%d, batch recount %d/%d",
						step, u, v, bc.Band, bc.BucketE, bc.BucketI, n[sideE], n[sideI])
				}
			}
		}
	}
}
