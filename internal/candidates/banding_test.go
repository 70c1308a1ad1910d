package candidates

import (
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"slim/internal/geo"
	"slim/internal/history"
	"slim/internal/model"
	"slim/internal/testenv"
)

func TestBandsMathMatchesLambertDerivation(t *testing.T) {
	// For t = (1/b)^(r/s) with r = s/b, solving back must recover ~b.
	for _, s := range []int{8, 16, 48, 100, 200} {
		for _, tThr := range []float64{0.4, 0.5, 0.6, 0.7, 0.8} {
			b, r := Bands(s, tThr)
			if b < 1 || b > s {
				t.Fatalf("Bands(%d, %g) = (%d, %d): b out of range", s, tThr, b, r)
			}
			if b*r < s {
				t.Fatalf("Bands(%d, %g) = (%d, %d): bands don't cover the signature", s, tThr, b, r)
			}
			// The implied threshold (1/b)^(1/r) should be near the target.
			implied := math.Pow(1/float64(b), 1/float64(r))
			if b > 1 && math.Abs(implied-tThr) > 0.22 {
				t.Errorf("Bands(%d, %g): implied threshold %g too far", s, tThr, implied)
			}
		}
	}
}

func TestBandsMonotoneInThreshold(t *testing.T) {
	// Lower thresholds need more bands (more permissive hashing).
	s := 96
	prevB := math.MaxInt32
	for _, tThr := range []float64{0.3, 0.5, 0.7, 0.9} {
		b, _ := Bands(s, tThr)
		if b > prevB {
			t.Fatalf("bands increased with threshold at t=%g", tThr)
		}
		prevB = b
	}
}

func TestBandsDegenerate(t *testing.T) {
	if b, r := Bands(0, 0.5); b != 0 || r != 0 {
		t.Error("zero-length signature should give (0,0)")
	}
	b, r := Bands(1, 0.5)
	if b != 1 || r != 1 {
		t.Errorf("Bands(1, .5) = (%d, %d), want (1,1)", b, r)
	}
	// Thresholds are clamped, not rejected.
	b, _ = Bands(10, 0)
	if b < 1 {
		t.Error("t=0 should clamp")
	}
	b, _ = Bands(10, 1)
	if b < 1 {
		t.Error("t=1 should clamp")
	}
}

func TestBandsQuickProperties(t *testing.T) {
	f := func(sSeed uint16, tSeed uint16) bool {
		s := int(sSeed%500) + 1
		tThr := float64(tSeed%998)/1000 + 0.001
		b, r := Bands(s, tThr)
		return b >= 1 && b <= s && r >= 1 && b*r >= s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// TestRowsPerBandAtNominalLength pins the banding of the paper's default
// params: r = 5 rows per band at t = 0.6 over the nominal 52 rows, rows of
// 48 fifteen-minute windows anchored at Unix 0, and r never shrinking as
// the threshold rises (a stricter filter needs longer bands).
func TestRowsPerBandAtNominalLength(t *testing.T) {
	p := DefaultParams()
	if r := RowsPerBand(p.Threshold); r != 5 {
		t.Fatalf("RowsPerBand(%g) = %d, want 5", p.Threshold, r)
	}
	if w := p.RowWindowing(model.Windowing{WidthSeconds: 900}); w != (model.Windowing{WidthSeconds: 43200}) {
		t.Fatalf("RowWindowing = %+v, want 12-hour rows anchored at Unix 0", w)
	}
	prev := 0
	for _, tThr := range []float64{0.1, 0.2, 0.4, 0.6, 0.8, 0.9} {
		r := RowsPerBand(tThr)
		if r < prev {
			t.Fatalf("RowsPerBand(%g) = %d, below %d at a lower threshold", tThr, r, prev)
		}
		prev = r
	}
}

// TestBandHashMatchesFNVReference pins the inlined FNV-1a band hashing to
// the hash/fnv byte stream it replaced — any drift would silently reshuffle
// every bucket and therefore every candidate set — and the band of a row to
// floor division, rows before Unix 0 included.
func TestBandHashMatchesFNVReference(t *testing.T) {
	ref := func(sig Signature, r int64, numBuckets uint64) []bandKey {
		var out []bandKey
		for i := 0; i < len(sig); {
			band := int64(math.Floor(float64(sig[i].Row) / float64(r)))
			h := fnv.New64a()
			var buf [8]byte
			write := func(v uint64) {
				for k := 0; k < 8; k++ {
					buf[k] = byte(v >> (8 * k))
				}
				_, _ = h.Write(buf[:])
			}
			write(uint64(band))
			for ; i < len(sig) && int64(math.Floor(float64(sig[i].Row)/float64(r))) == band; i++ {
				write(uint64(sig[i].Row))
				write(uint64(sig[i].Cell))
			}
			out = append(out, bandKey{band: band, hash: h.Sum64() % numBuckets})
		}
		return out
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		var sig Signature
		for row := int64(-30 + rng.Intn(20)); row < 30; row += int64(1 + rng.Intn(4)) {
			sig = append(sig, Row{Row: row, Cell: geo.CellID(rng.Uint64())})
		}
		r, numBuckets := int64(1+rng.Intn(6)), uint64(1)<<uint(6+rng.Intn(9))
		want, got := ref(sig, r, numBuckets), appendBands(nil, sig, r, numBuckets)
		if !slices.Equal(got, want) {
			t.Fatalf("r=%d: appendBands=%v fnv reference=%v", r, got, want)
		}
		if n := countBands(sig, r); n != len(want) {
			t.Fatalf("r=%d: countBands=%d, appendBands made %d keys", r, n, len(want))
		}
	}
}

// TestAppendSignatureZeroAllocs is the allocation gate of the signature
// pass: with a reused destination, signing an entity whose rows hold
// several cells must not touch the heap.
func TestAppendSignatureZeroAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	var recs []model.Record
	for k := 0; k < 400; k++ {
		recs = append(recs, rec("a", 37+float64(k%17)*0.05, -122.4+float64(k%5)*0.05, int64(900*(k/2))))
	}
	h := sigStore("E", recs, Params{StepWindows: 12, SpatialLevel: 13}).History("a")
	buf := AppendSignature(nil, h)
	if avg := testing.AllocsPerRun(100, func() { buf = AppendSignature(buf, h) }); avg != 0 {
		t.Fatalf("AppendSignature with a reused dst allocates %v times per call, want 0", avg)
	}
}

// indexPairs builds an index over the two stores, runs its initial Update
// and returns its candidate set by entity id with its stats.
func indexPairs(se, si *history.Store, p Params) ([]Pair, Stats) {
	x := New(se, si, p)
	x.Update(nil, nil)
	return named(se, si, allPairs(x)), x.Stats()
}

func TestCandidatePairsIdenticalSignatures(t *testing.T) {
	// Same movement → identical signatures → guaranteed candidate.
	var eRecs, iRecs []model.Record
	for k := 0; k < 24; k++ {
		unix := int64(900 * k)
		lat := 37.5 + float64(k%4)*0.05
		eRecs = append(eRecs, rec("u", lat, -122.4, unix))
		iRecs = append(iRecs, rec("v", lat, -122.4, unix))
		// A decoy with a totally different signature.
		iRecs = append(iRecs, rec("w", 48.85+float64(k%4)*0.05, 2.35, unix))
	}
	p := Params{Threshold: 0.6, StepWindows: 4, SpatialLevel: 12, NumBuckets: 1 << 16}
	pairs, st := indexPairs(sigStore("E", eRecs, p), sigStore("I", iRecs, p), p)
	if !slices.Contains(pairs, Pair{U: "u", V: "v"}) {
		t.Fatalf("identical signatures must collide; got pairs %v", pairs)
	}
	if st.Candidates != int64(len(pairs)) {
		t.Error("stats candidate count mismatch")
	}
	if st.Rows != RowsPerBand(p.Threshold) || st.NumBuckets != p.NumBuckets {
		t.Errorf("banding stats not populated: %+v", st)
	}
	// With 2^16 buckets the decoy should not collide with u.
	if slices.Contains(pairs, Pair{U: "u", V: "w"}) {
		t.Error("decoy with disjoint signature collided (improbable with 65536 buckets)")
	}
}

func TestCandidatePairsFewerBucketsMoreCollisions(t *testing.T) {
	// Shrinking the bucket array can only create more (or equal) candidate
	// pairs — the Fig. 9 mechanism.
	var eRecs, iRecs []model.Record
	for e := 0; e < 12; e++ {
		for k := 0; k < 12; k++ {
			unix := int64(900 * k)
			eRecs = append(eRecs, rec("e"+string(rune('a'+e)), 37.0+float64(e)*0.3, -122.4, unix))
			iRecs = append(iRecs, rec("i"+string(rune('a'+e)), 37.0+float64(e)*0.3, -122.4, unix))
		}
	}
	p := Params{Threshold: 0.6, StepWindows: 3, SpatialLevel: 12}
	se, si := sigStore("E", eRecs, p), sigStore("I", iRecs, p)
	p.NumBuckets = 2
	small, _ := indexPairs(se, si, p)
	p.NumBuckets = 1 << 20
	large, _ := indexPairs(se, si, p)
	if len(small) < len(large) {
		t.Errorf("fewer buckets produced fewer candidates: %d < %d", len(small), len(large))
	}
	// Every true pair must be present even with tiny bucket arrays.
	for e := 0; e < 12; e++ {
		want := Pair{U: model.EntityID("e" + string(rune('a'+e))), V: model.EntityID("i" + string(rune('a'+e)))}
		if !slices.Contains(small, want) {
			t.Errorf("true pair %v lost with small bucket array", want)
		}
	}
}

func TestCandidatePairsDeterministic(t *testing.T) {
	var eRecs, iRecs []model.Record
	for k := 0; k < 20; k++ {
		unix := int64(900 * k)
		eRecs = append(eRecs, rec("a", 37.5, -122.4, unix), rec("b", 37.9, -122.0, unix))
		iRecs = append(iRecs, rec("x", 37.5, -122.4, unix), rec("y", 37.9, -122.0, unix))
	}
	p := Params{Threshold: 0.6, StepWindows: 4, SpatialLevel: 12, NumBuckets: 4096}
	build := func(workers int) []uint64 {
		x := New(sigStore("E", eRecs, p), sigStore("I", iRecs, p), p)
		x.Workers = workers
		x.Update(nil, nil)
		return allPairs(x)
	}
	first := build(1)
	if len(first) == 0 {
		t.Fatal("workload produced no candidates; the test must compare a non-empty set")
	}
	for trial := 0; trial < 5; trial++ {
		if again := build(1 + trial%3); !slices.Equal(again, first) {
			t.Fatalf("trial %d: candidate set %v, first build %v", trial, again, first)
		}
	}
}

func TestCandidatePairsEmptyInputs(t *testing.T) {
	p := Params{Threshold: 0.6, StepWindows: 4, SpatialLevel: 12, NumBuckets: 16}
	pairs, st := indexPairs(sigStore("E", nil, p), sigStore("I", nil, p), p)
	if len(pairs) != 0 || st.Candidates != 0 {
		t.Error("empty inputs should produce no candidates")
	}
}

func TestSilentEntitiesNeverCollide(t *testing.T) {
	// At t = 0.2 a band holds two rows. e and i are each active only in
	// row 0, in different cells, and silent in the rest of the data's span:
	// a third entity stretches it over band 1 (row 2). Silent rows are not
	// in a signature and a band with no observed row is never hashed, so
	// e's and i's shared silence in band 1 must not make them candidates.
	p := Params{Threshold: 0.2, StepWindows: 4, SpatialLevel: 12, NumBuckets: 1 << 20}
	if r := RowsPerBand(p.Threshold); r != 2 {
		t.Fatalf("RowsPerBand(%g) = %d, want 2", p.Threshold, r)
	}
	var eRecs, iRecs []model.Record
	for k := 0; k < 4; k++ {
		eRecs = append(eRecs, rec("e", 37.5, -122.4, int64(900*k)), rec("far", 40.7, -74.0, int64(900*(8+k))))
		iRecs = append(iRecs, rec("i", 48.85, 2.35, int64(900*k)))
	}
	pairs, st := indexPairs(sigStore("E", eRecs, p), sigStore("I", iRecs, p), p)
	if st.Buckets != 3 || st.Memberships != 3 {
		t.Fatalf("%d buckets, %d memberships; want one bucket per entity, none for a silent band", st.Buckets, st.Memberships)
	}
	if len(pairs) != 0 {
		t.Errorf("entities silent in a shared band collided: %v", pairs)
	}
}
