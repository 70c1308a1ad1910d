package lsh

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

var wnd = model.Windowing{Epoch: 0, WidthSeconds: 900}

func rec(e string, lat, lng float64, unix int64) model.Record {
	return model.Record{Entity: model.EntityID(e), LatLng: geo.LatLng{Lat: lat, Lng: lng}, Unix: unix}
}

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

func TestCandidateProbabilitySCurve(t *testing.T) {
	b, r := 16, 6
	// Monotone increasing in t.
	prev := -1.0
	for x := 0.0; x <= 1.0; x += 0.05 {
		p := CandidateProbability(x, b, r)
		if p < prev-1e-12 {
			t.Fatalf("probability not monotone at t=%g", x)
		}
		if p < 0 || p > 1 {
			t.Fatalf("probability out of [0,1]: %g", p)
		}
		prev = p
	}
	// Near the derived threshold the curve must be in transition, with low
	// probability well below and high probability well above.
	thr := math.Pow(1/float64(b), 1/float64(r))
	if p := CandidateProbability(thr-0.25, b, r); p > 0.45 {
		t.Errorf("probability below threshold too high: %g", p)
	}
	if p := CandidateProbability(thr+0.25, b, r); p < 0.8 {
		t.Errorf("probability above threshold too low: %g", p)
	}
	if CandidateProbability(0.5, 0, 5) != 0 {
		t.Error("degenerate bands should give probability 0")
	}
}

func TestBuildSignaturesShapes(t *testing.T) {
	// Entity active in windows 0..2 and 9..11 of a 12-window span; step 3
	// → 4 queries, middle two are placeholders.
	var recs []model.Record
	for k := 0; k < 3; k++ {
		recs = append(recs, rec("a", 37.7749, -122.4194, int64(900*k)))
		recs = append(recs, rec("a", 37.7749, -122.4194, int64(900*(9+k))))
	}
	d := model.Dataset{Name: "E", Records: recs}
	s := history.Build(&d, wnd, 12)
	sigs := BuildSignatures(s, 3, 0, 11)
	sig := sigs["a"]
	if len(sig) != 4 {
		t.Fatalf("signature length = %d, want 4", len(sig))
	}
	want := geo.CellIDFromLatLngLevel(geo.LatLng{Lat: 37.7749, Lng: -122.4194}, 12)
	if sig[0] != want || sig[3] != want {
		t.Errorf("active queries should carry the dominating cell: %v", sig)
	}
	if sig[1] != Placeholder || sig[2] != Placeholder {
		t.Errorf("silent queries should be placeholders: %v", sig)
	}
}

func TestBuildSignaturesDominanceCount(t *testing.T) {
	// Paper's illustrative example: 3 visits to one cell, 2 to another in
	// one query window → the 3-count cell dominates.
	recs := []model.Record{
		rec("a", 37.7749, -122.4194, 0),
		rec("a", 37.7749, -122.4194, 950),
		rec("a", 37.7749, -122.4194, 1900),
		rec("a", 37.9, -122.1, 100),
		rec("a", 37.9, -122.1, 1000),
	}
	d := model.Dataset{Name: "E", Records: recs}
	s := history.Build(&d, wnd, 12)
	sigs := BuildSignatures(s, 3, 0, 2)
	want := geo.CellIDFromLatLngLevel(geo.LatLng{Lat: 37.7749, Lng: -122.4194}, 12)
	if sigs["a"][0] != want {
		t.Errorf("dominating cell = %v, want the 3-visit cell %v", sigs["a"][0], want)
	}
}

func TestSignatureSimilarity(t *testing.T) {
	c1 := geo.CellID(0x89c2589 | 1)
	c2 := geo.CellID(0x89c25f1 | 1)
	a := Signature{c1, c2, Placeholder, c1}
	b := Signature{c1, c1, Placeholder, c1}
	// Matching non-placeholder positions: 0 and 3 → 2/4.
	if got := SignatureSimilarity(a, b); got != 0.5 {
		t.Errorf("similarity = %g, want 0.5", got)
	}
	// Placeholders never match (both silent ≠ same place).
	allP := Signature{Placeholder, Placeholder}
	if got := SignatureSimilarity(allP, allP); got != 0 {
		t.Errorf("placeholder similarity = %g, want 0", got)
	}
	if SignatureSimilarity(a, Signature{c1}) != 0 {
		t.Error("mismatched lengths should give 0")
	}
	if SignatureSimilarity(nil, nil) != 0 {
		t.Error("empty signatures should give 0")
	}
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
	sigsE := BuildSignatures(se, 4, 0, 23)
	sigsI := BuildSignatures(si, 4, 0, 23)
	pairs, st := CandidatePairs(sigsE, sigsI, Params{Threshold: 0.6, StepWindows: 4, SpatialLevel: 12, NumBuckets: 1 << 16})
	found := false
	for _, p := range pairs {
		if p.U == "u" && p.V == "v" {
			found = true
		}
	}
	if !found {
		t.Fatalf("identical signatures must collide; got pairs %v", pairs)
	}
	if st.Candidates != int64(len(pairs)) {
		t.Error("stats candidate count mismatch")
	}
	if st.Bands <= 0 || st.Rows <= 0 {
		t.Errorf("banding stats not populated: %+v", st)
	}
	// With 2^16 buckets the decoy should not collide with u.
	for _, p := range pairs {
		if p.U == "u" && p.V == "w" {
			t.Error("decoy with disjoint signature collided (improbable with 65536 buckets)")
		}
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
	sigsE := BuildSignatures(se, 3, 0, 11)
	sigsI := BuildSignatures(si, 3, 0, 11)
	small, _ := CandidatePairs(sigsE, sigsI, Params{Threshold: 0.6, StepWindows: 3, NumBuckets: 2})
	large, _ := CandidatePairs(sigsE, sigsI, Params{Threshold: 0.6, StepWindows: 3, NumBuckets: 1 << 20})
	if len(small) < len(large) {
		t.Errorf("fewer buckets produced fewer candidates: %d < %d", len(small), len(large))
	}
	// Every true pair must be present even with tiny bucket arrays.
	for e := 0; e < 12; e++ {
		want := Pair{U: model.EntityID("e" + string(rune('a'+e))), V: model.EntityID("i" + string(rune('a'+e)))}
		found := false
		for _, p := range small {
			if p == want {
				found = true
				break
			}
		}
		if !found {
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
	se := history.Build(&model.Dataset{Name: "E", Records: eRecs}, wnd, 12)
	si := history.Build(&model.Dataset{Name: "I", Records: iRecs}, wnd, 12)
	sigsE := BuildSignatures(se, 4, 0, 19)
	sigsI := BuildSignatures(si, 4, 0, 19)
	p := Params{Threshold: 0.6, StepWindows: 4, NumBuckets: 4096}
	first, _ := CandidatePairs(sigsE, sigsI, p)
	for trial := 0; trial < 5; trial++ {
		again, _ := CandidatePairs(sigsE, sigsI, p)
		if len(again) != len(first) {
			t.Fatal("candidate count not deterministic")
		}
		for i := range first {
			if first[i] != again[i] {
				t.Fatal("candidate order not deterministic")
			}
		}
	}
}

func TestCandidatePairsEmptyInputs(t *testing.T) {
	pairs, st := CandidatePairs(nil, nil, Params{Threshold: 0.6})
	if pairs != nil || st.Candidates != 0 {
		t.Error("empty inputs should produce no candidates")
	}
}

func TestSilentEntitiesNeverCollide(t *testing.T) {
	// Entities with all-placeholder signatures must not become candidates.
	sigsE := map[model.EntityID]Signature{"e": {Placeholder, Placeholder}}
	sigsI := map[model.EntityID]Signature{"i": {Placeholder, Placeholder}}
	pairs, _ := CandidatePairs(sigsE, sigsI, Params{Threshold: 0.6, NumBuckets: 16})
	if len(pairs) != 0 {
		t.Errorf("placeholder-only signatures collided: %v", pairs)
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

func BenchmarkCandidatePairs(b *testing.B) {
	var eRecs, iRecs []model.Record
	for e := 0; e < 100; e++ {
		id := string(rune('A'+e%26)) + string(rune('a'+e/26))
		for k := 0; k < 48; k++ {
			unix := int64(900 * k)
			lat := 37.0 + float64((e*7+k)%40)*0.02
			eRecs = append(eRecs, rec("e"+id, lat, -122.4, unix))
			iRecs = append(iRecs, rec("i"+id, lat, -122.4, unix))
		}
	}
	se := history.Build(&model.Dataset{Name: "E", Records: eRecs}, wnd, 13)
	si := history.Build(&model.Dataset{Name: "I", Records: iRecs}, wnd, 13)
	sigsE := BuildSignatures(se, 4, 0, 47)
	sigsI := BuildSignatures(si, 4, 0, 47)
	p := Params{Threshold: 0.6, StepWindows: 4, NumBuckets: 4096}
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		_, _ = CandidatePairs(sigsE, sigsI, p)
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

// TestAppendSignatureMatchesBuildSignatures verifies the single-entity
// primitive (with buffer reuse) agrees with the batch builder.
func TestAppendSignatureMatchesBuildSignatures(t *testing.T) {
	var recs []model.Record
	for e := 0; e < 8; e++ {
		id := string(rune('a' + e))
		for k := 0; k < 30; k++ {
			recs = append(recs, rec(id, 37+float64((e*5+k)%11)*0.05, -122.4, int64(900*(k*3+e))))
		}
	}
	s := history.Build(&model.Dataset{Name: "E", Records: recs}, wnd, 13)
	minW, maxW, _ := s.WindowRange()
	n := SignatureLength(minW, maxW, 4)
	batch := BuildSignatures(s, 4, minW, maxW)
	var buf Signature
	for _, e := range s.Entities() {
		buf = AppendSignature(buf, s.History(e), 4, minW, maxW, n)
		if !slices.Equal(buf, batch[e]) {
			t.Fatalf("entity %s: AppendSignature %v != BuildSignatures %v", e, buf, batch[e])
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

// TestNewBandingDefaults checks the bucket-count default and range clamp.
func TestNewBandingDefaults(t *testing.T) {
	g := NewBanding(10, Params{Threshold: 0.6})
	if g.NumBuckets != DefaultNumBuckets {
		t.Fatalf("NumBuckets = %d, want default %d", g.NumBuckets, DefaultNumBuckets)
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
