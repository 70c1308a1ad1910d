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

func TestSignatureLength(t *testing.T) {
	cases := []struct {
		minW, maxW int64
		step, want int
	}{
		{0, 11, 3, 4},
		{0, 11, 4, 3},
		{0, 12, 4, 4}, // 13 windows / 4 → 4 queries (last short)
		{5, 5, 1, 1},
		{0, 9, 0, 0}, // bad step
		{9, 0, 3, 0}, // inverted range
		{0, 99, 48, 3},
	}
	for _, c := range cases {
		if got := SignatureLength(c.minW, c.maxW, c.step); got != c.want {
			t.Errorf("SignatureLength(%d,%d,%d) = %d, want %d", c.minW, c.maxW, c.step, got, c.want)
		}
	}
}

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

// TestNewBandingDefaults checks the banding of the paper's default params:
// their bucket count, and bands that tile the signature.
func TestNewBandingDefaults(t *testing.T) {
	g := NewBanding(10, DefaultParams())
	if g.NumBuckets != DefaultParams().NumBuckets {
		t.Fatalf("NumBuckets = %d, want default %d", g.NumBuckets, DefaultParams().NumBuckets)
	}
	total := 0
	for band := 0; band < g.Bands; band++ {
		lo, hi := g.BandRange(band)
		if lo >= hi && band < g.Bands-1 {
			t.Fatalf("band %d empty before the final band", band)
		}
		if hi > g.SigLen {
			t.Fatalf("band %d overruns the signature: hi=%d len=%d", band, hi, g.SigLen)
		}
		total += hi - lo
	}
	if total != g.SigLen {
		t.Fatalf("bands cover %d rows, want %d", total, g.SigLen)
	}
}

// TestBandHashMatchesFNVReference pins the inlined FNV-1a band hashing to
// the hash/fnv byte stream it replaced: any drift would silently reshuffle
// every bucket and therefore every candidate set.
func TestBandHashMatchesFNVReference(t *testing.T) {
	ref := func(sig Signature, band, lo, hi, numBuckets int) (uint64, bool) {
		h := fnv.New64a()
		var buf [8]byte
		write := func(v uint64) {
			for k := 0; k < 8; k++ {
				buf[k] = byte(v >> (8 * k))
			}
			_, _ = h.Write(buf[:])
		}
		write(uint64(band))
		any := false
		for row := lo; row < hi && row < len(sig); row++ {
			if sig[row] == Placeholder {
				continue
			}
			any = true
			write(uint64(row))
			write(uint64(sig[row]))
		}
		if !any {
			return 0, false
		}
		return h.Sum64() % uint64(numBuckets), true
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		n := 1 + rng.Intn(24)
		sig := make(Signature, n)
		for i := range sig {
			if rng.Intn(3) == 0 {
				sig[i] = Placeholder
			} else {
				sig[i] = geo.CellID(rng.Uint64())
			}
		}
		g := NewBanding(n, Params{Threshold: 0.2 + 0.6*rng.Float64(), NumBuckets: 1 << uint(6+rng.Intn(9))})
		for band := 0; band < g.Bands; band++ {
			lo, hi := g.BandRange(band)
			want, wantOK := ref(sig, band, lo, hi, g.NumBuckets)
			got, gotOK := g.BandHash(sig, band)
			if got != want || gotOK != wantOK {
				t.Fatalf("band %d of %d rows: BandHash=(%d,%v) fnv reference=(%d,%v)", band, n, got, gotOK, want, wantOK)
			}
		}
	}
}

// TestAppendSignatureZeroAllocs is the allocation gate of the signature
// sweep: with a reused destination, signing an entity whose query windows
// span several leaf windows and cells (the sort-scratch path of
// DominatingCellAt) must not touch the heap once the scratch pool is warm.
func TestAppendSignatureZeroAllocs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("the race detector makes sync.Pool drop items; gate runs in non-race CI")
	}
	var recs []model.Record
	for k := 0; k < 400; k++ {
		recs = append(recs, rec("a", 37+float64(k%17)*0.05, -122.4+float64(k%5)*0.05, int64(900*(k/2))))
	}
	s := history.Build(&model.Dataset{Name: "E", Records: recs}, wnd, 13)
	h := s.History("a")
	minW, maxW, _ := s.WindowRange()
	n := SignatureLength(minW, maxW, 12)
	buf := AppendSignature(nil, h, 12, minW, maxW, n)
	if avg := testing.AllocsPerRun(100, func() { buf = AppendSignature(buf, h, 12, minW, maxW, n) }); avg != 0 {
		t.Fatalf("AppendSignature with a reused dst allocates %v times per call, want 0", avg)
	}
}

// indexPairs builds an index over the two stores, runs its initial Update
// and returns its candidate set by entity id with its stats.
func indexPairs(se, si *history.Store, p Params) ([]Pair, Stats) {
	x := New(se, si, p)
	x.Update(nil, nil)
	return named(se, si, x.Pairs()), x.Stats()
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
	se := history.Build(&model.Dataset{Name: "E", Records: eRecs}, wnd, 12)
	si := history.Build(&model.Dataset{Name: "I", Records: iRecs}, wnd, 12)
	pairs, st := indexPairs(se, si, Params{Threshold: 0.6, StepWindows: 4, SpatialLevel: 12, NumBuckets: 1 << 16})
	if !slices.Contains(pairs, Pair{U: "u", V: "v"}) {
		t.Fatalf("identical signatures must collide; got pairs %v", pairs)
	}
	if st.Candidates != int64(len(pairs)) {
		t.Error("stats candidate count mismatch")
	}
	if st.Bands <= 0 || st.Rows <= 0 {
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
	se := history.Build(&model.Dataset{Name: "E", Records: eRecs}, wnd, 12)
	si := history.Build(&model.Dataset{Name: "I", Records: iRecs}, wnd, 12)
	small, _ := indexPairs(se, si, Params{Threshold: 0.6, StepWindows: 3, SpatialLevel: 12, NumBuckets: 2})
	large, _ := indexPairs(se, si, Params{Threshold: 0.6, StepWindows: 3, SpatialLevel: 12, NumBuckets: 1 << 20})
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
	dsE := model.Dataset{Name: "E", Records: eRecs}
	dsI := model.Dataset{Name: "I", Records: iRecs}
	p := Params{Threshold: 0.6, StepWindows: 4, SpatialLevel: 12, NumBuckets: 4096}
	build := func(workers int) []uint64 {
		x := New(history.Build(&dsE, wnd, 12), history.Build(&dsI, wnd, 12), p)
		x.Workers = workers
		x.Update(nil, nil)
		return x.Pairs()
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
	empty := func(name string) *history.Store { return history.Build(&model.Dataset{Name: name}, wnd, 12) }
	pairs, st := indexPairs(empty("E"), empty("I"), Params{Threshold: 0.6, StepWindows: 4, NumBuckets: 16})
	if len(pairs) != 0 || st.Candidates != 0 {
		t.Error("empty inputs should produce no candidates")
	}
}

func TestSilentEntitiesNeverCollide(t *testing.T) {
	// Over a three-query grid banded 2 + 1 rows, e and i are each active
	// only in the first query window, in different cells: both are silent
	// in the whole second band. Placeholder-only bands are never hashed,
	// so that shared silence must not make them candidates. A third entity
	// stretches the grid to three queries.
	var eRecs, iRecs []model.Record
	for k := 0; k < 4; k++ {
		eRecs = append(eRecs, rec("e", 37.5, -122.4, int64(900*k)), rec("far", 40.7, -74.0, int64(900*(8+k))))
		iRecs = append(iRecs, rec("i", 48.85, 2.35, int64(900*k)))
	}
	se := history.Build(&model.Dataset{Name: "E", Records: eRecs}, wnd, 12)
	si := history.Build(&model.Dataset{Name: "I", Records: iRecs}, wnd, 12)
	pairs, st := indexPairs(se, si, Params{Threshold: 0.6, StepWindows: 4, SpatialLevel: 12, NumBuckets: 1 << 20})
	if st.SignatureLen != 3 || st.Bands != 2 {
		t.Fatalf("grid = %d rows in %d bands, want 3 rows in 2 bands", st.SignatureLen, st.Bands)
	}
	if len(pairs) != 0 {
		t.Errorf("entities silent in a shared band collided: %v", pairs)
	}
}
