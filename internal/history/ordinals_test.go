package history_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"slim/internal/candidates"
	"slim/internal/geo"
	"slim/internal/history"
	"slim/internal/model"
)

// ordinalIDs lists a table's ids by ordinal.
func ordinalIDs(table *history.Ordinals) []model.EntityID {
	ids := make([]model.EntityID, table.Len())
	for k := range ids {
		ids[k] = table.ID(uint32(k))
	}
	return ids
}

// sideRecords draws n records over the given entity ids.
func sideRecords(rng *rand.Rand, ids []string, n int) []model.Record {
	recs := make([]model.Record, n)
	for k := range recs {
		recs[k] = model.Record{
			Entity: model.EntityID(ids[rng.Intn(len(ids))]),
			LatLng: geo.LatLng{Lat: 37.5 + float64(rng.Intn(40))*0.01, Lng: -122.4 + float64(rng.Intn(40))*0.01},
			Unix:   rng.Int63n(900 * 60),
		}
		if rng.Intn(5) == 0 {
			recs[k].RadiusKm = 0.3 + rng.Float64()
		}
	}
	return recs
}

// TestOrdinalsAppendOnlyAndSharedAcrossASidesStores is the property the
// pair-scale structures stand on: a side's entity table only ever grows at
// its end — an ordinal, once assigned, names the same entity forever and no
// entity is numbered twice — and the side's two stores agree on every
// ordinal after any interleaving of a grouped build and Adds, whichever
// store hears of a new entity first and however far one lags the other.
func TestOrdinalsAppendOnlyAndSharedAcrossASidesStores(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var built, streamed []string
		for k := 0; k < 9; k++ {
			built = append(built, fmt.Sprintf("b%02d", rng.Intn(50)))
		}
		for k := 0; k < 14; k++ {
			// Ids sorting before, between and after the built ones.
			streamed = append(streamed, fmt.Sprintf("%c%02d", "abc"[rng.Intn(3)], rng.Intn(50)))
		}
		g := (&model.Dataset{Name: "E", Records: sideRecords(rng, built, 120)}).GroupByEntity(-1)
		sim := history.BuildGrouped(&g, refWindowing, refLevel, 2)
		sig := sim.SignatureStore(&g, refWindowing, refLevel+3, 2)
		table := sim.Ordinals()
		if sig.Ordinals() != table {
			t.Fatal("a side's two stores do not share one entity table")
		}
		if !slices.Equal(ordinalIDs(table), g.Entities) {
			t.Fatalf("seed %d: a build must number entities in sorted-id order: %v", seed, ordinalIDs(table))
		}

		known := slices.Clone(ordinalIDs(table))
		checkTable := func(step string) {
			t.Helper()
			ids := ordinalIDs(table)
			if len(ids) < len(known) || !slices.Equal(ids[:len(known)], known) {
				t.Fatalf("seed %d, %s: assigned ordinals moved: %v, was %v", seed, step, ids, known)
			}
			known = slices.Clone(ids)
			for ord, id := range ids {
				if got, ok := table.Lookup(id); !ok || got != uint32(ord) {
					t.Fatalf("seed %d, %s: %s is ordinal %d but looks up as %d (%v): numbered twice", seed, step, id, ord, got, ok)
				}
			}
		}

		// Each record goes to both stores, in either order; the store that
		// goes second may lag by several records.
		var lagSim, lagSig []model.Record
		given := map[model.EntityID]uint32{}
		add := func(s *history.Store, r model.Record) {
			ord := s.Add(r)
			if prev, ok := given[r.Entity]; ok && prev != ord {
				t.Fatalf("seed %d: %s was given ordinal %d, now %d", seed, r.Entity, prev, ord)
			}
			given[r.Entity] = ord
		}
		drain := func(s *history.Store, lag *[]model.Record, keep int) {
			for len(*lag) > keep {
				add(s, (*lag)[0])
				*lag = (*lag)[1:]
			}
		}
		for k, r := range sideRecords(rng, append(streamed, built...), 300) {
			if rng.Intn(2) == 0 {
				add(sim, r)
				lagSig = append(lagSig, r)
			} else {
				add(sig, r)
				lagSim = append(lagSim, r)
			}
			drain(sim, &lagSim, rng.Intn(6))
			drain(sig, &lagSig, rng.Intn(6))
			checkTable(fmt.Sprintf("record %d", k))
		}
		drain(sim, &lagSim, 0)
		drain(sig, &lagSig, 0)
		checkTable("drained")

		if !slices.Equal(sim.Entities(), sig.Entities()) || !slices.IsSorted(sim.Entities()) || sim.NumEntities() != table.Len() {
			t.Fatalf("seed %d: stores disagree on the entity list:\n  %v\n  %v", seed, sim.Entities(), sig.Entities())
		}
		for ord, id := range ordinalIDs(table) {
			hs, hg := sim.HistoryAt(uint32(ord)), sig.HistoryAt(uint32(ord))
			if hs.NumBins() == 0 || hg.NumBins() == 0 || hs.Entity != id || hg.Entity != id {
				t.Fatalf("seed %d: ordinal %d (%s) names different histories in the two stores", seed, ord, id)
			}
			if !reflect.DeepEqual(hs, sim.History(id)) || !reflect.DeepEqual(hg, sig.History(id)) {
				t.Fatalf("seed %d: History(%s) and HistoryAt(%d) disagree", seed, id, ord)
			}
		}
	}
}

// TestSignatureStoreIsColumnsOnly: a signature store answers everything
// the candidate index asks — its columns — exactly like a scoring store
// built at the same windowing and level, through builds and Adds alike,
// and refuses everything it does not maintain.
func TestSignatureStoreIsColumnsOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	ids := []string{"u1", "u2", "u3", "u4", "u5", "u6"}
	d := model.Dataset{Name: "E", Records: sideRecords(rng, ids, 150)}
	g := d.GroupByEntity(-1)
	const sigLevel = refLevel + 3
	rows := candidates.Params{StepWindows: 8}.RowWindowing(refWindowing)
	sim := history.BuildGrouped(&g, refWindowing, refLevel, 1)
	sig := sim.SignatureStore(&g, rows, sigLevel, 1)
	want := history.Build(&d, rows, sigLevel)
	for _, r := range sideRecords(rng, append(ids, "u0", "u9"), 80) {
		sim.Add(r)
		sig.Add(r)
		want.Add(r)
	}

	if !slices.Equal(sig.Entities(), want.Entities()) || sig.AvgBins() != want.AvgBins() || sig.Epoch() != want.Epoch() {
		t.Fatalf("entity list / AvgBins / Epoch differ from a scoring store at the same level")
	}
	for _, id := range want.Entities() {
		hs, hw := sig.History(id), want.History(id)
		var bs, bw []string
		hs.Bins(func(b history.Bin, n float64) { bs = append(bs, fmt.Sprint(b, n)) })
		hw.Bins(func(b history.Bin, n float64) { bw = append(bw, fmt.Sprint(b, n)) })
		if !slices.Equal(bs, bw) {
			t.Fatalf("%s: columns differ from a scoring store at the same level", id)
		}
	}
	for _, id := range want.Entities() {
		if !slices.Equal(candidates.AppendSignature(nil, sig.History(id)), candidates.AppendSignature(nil, want.History(id))) {
			t.Fatalf("%s: signature differs from a scoring store at the same level", id)
		}
	}

	for op, call := range map[string]func(){
		"IDF":            func() { sig.IDF(history.Bin{}) },
		"Compile":        func() { sig.Compile() },
		"CompiledViewAt": func() { sig.CompiledViewAt(0, new(history.View)) },
		"CompiledView":   func() { sig.CompiledView("u1", new(history.View)) },
	} {
		func() {
			defer func() {
				if msg := fmt.Sprint(recover()); !strings.Contains(msg, "signature store") {
					t.Errorf("%s on a signature store: recovered %q, want a panic naming the signature store", op, msg)
				}
			}()
			call()
		}()
	}
}
