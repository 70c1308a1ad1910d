package stlink

import (
	"sort"
	"testing"

	"slim/internal/datagen"
	"slim/internal/geo"
	"slim/internal/history"
	"slim/internal/matching"
	"slim/internal/model"
)

var wnd = model.Windowing{WidthSeconds: 900}

func rec(e string, lat, lng float64, unix int64) model.Record {
	return model.Record{Entity: model.EntityID(e), LatLng: geo.LatLng{Lat: lat, Lng: lng}, Unix: unix}
}

// movers builds two datasets where eK and iK follow the same distinctive
// multi-cell routes (co-occurring in diverse locations).
func movers(n, steps int) (model.Dataset, model.Dataset) {
	var dsE, dsI model.Dataset
	dsE.Name, dsI.Name = "E", "I"
	for e := 0; e < n; e++ {
		eid := "e" + string(rune('a'+e))
		iid := "i" + string(rune('a'+e))
		for k := 0; k < steps; k++ {
			unix := int64(900 * k)
			lat := 37.0 + float64(e)*0.4 + float64(k%5)*0.05
			lng := -122.4 + float64(k%7)*0.05
			dsE.Records = append(dsE.Records, rec(eid, lat, lng, unix))
			dsI.Records = append(dsI.Records, rec(iid, lat, lng, unix+30))
		}
	}
	return dsE, dsI
}

func TestLinkRecoversCleanPairs(t *testing.T) {
	dsE, dsI := movers(6, 20)
	res := Link(&dsE, &dsI, DefaultParams(wnd, 12))
	if len(res.Links) != 6 {
		t.Fatalf("linked %d pairs, want 6 (links: %v, k=%d l=%d)", len(res.Links), res.Links, res.K, res.L)
	}
	for _, l := range res.Links {
		if "i"+string(l.U[1]) != string(l.V) {
			t.Errorf("wrong link %s-%s", l.U, l.V)
		}
	}
	if res.RecordComparisons == 0 {
		t.Error("record comparisons not counted")
	}
}

func TestAmbiguityElimination(t *testing.T) {
	// Two I entities identical to one E entity: qualified twice → dropped.
	var dsE, dsI model.Dataset
	for k := 0; k < 15; k++ {
		unix := int64(900 * k)
		lat := 37.0 + float64(k%5)*0.05
		dsE.Records = append(dsE.Records, rec("u", lat, -122.4, unix))
		dsI.Records = append(dsI.Records, rec("v1", lat, -122.4, unix+10))
		dsI.Records = append(dsI.Records, rec("v2", lat, -122.4, unix+20))
		// An unambiguous control pair far away.
		dsE.Records = append(dsE.Records, rec("w", 45.0+float64(k%5)*0.05, -100.0, unix))
		dsI.Records = append(dsI.Records, rec("x", 45.0+float64(k%5)*0.05, -100.0, unix+10))
	}
	p := DefaultParams(wnd, 12)
	p.K, p.L = 2, 2 // fixed thresholds keep the test crisp
	res := Link(&dsE, &dsI, p)
	for _, l := range res.Links {
		if l.U == "u" {
			t.Errorf("ambiguous entity u must not be linked (got %s-%s)", l.U, l.V)
		}
	}
	found := false
	for _, l := range res.Links {
		if l.U == "w" && l.V == "x" {
			found = true
		}
	}
	if !found {
		t.Error("unambiguous pair w-x should be linked")
	}
}

// alibied builds one co-moving pair whose I side also appears across the
// country in six of the shared windows.
func alibied() (dsE, dsI model.Dataset) {
	for k := 0; k < 12; k++ {
		unix := int64(900 * k)
		lat := 37.0 + float64(k%4)*0.05
		dsE.Records = append(dsE.Records, rec("u", lat, -122.4, unix))
		dsI.Records = append(dsI.Records, rec("v", lat, -122.4, unix+10))
		// Inject alibi records: v also appears across the country in the
		// same windows, repeatedly.
		if k < 6 {
			dsI.Records = append(dsI.Records, rec("v", 40.7, -74.0, unix+20))
		}
	}
	return dsE, dsI
}

func TestAlibiDisqualifies(t *testing.T) {
	dsE, dsI := alibied()
	p := DefaultParams(wnd, 12)
	p.K, p.L = 2, 2
	res := Link(&dsE, &dsI, p)
	for _, l := range res.Links {
		if l.U == "u" && l.V == "v" {
			t.Error("pair with 6 alibi record pairs must be disqualified")
		}
	}
	// The candidate evidence must still be recorded.
	foundCand := false
	for _, c := range res.Candidates {
		if c.U == "u" && c.V == "v" {
			foundCand = true
			if c.AlibiPairs < 3 {
				t.Errorf("alibi count = %d, want >= 3", c.AlibiPairs)
			}
		}
	}
	if !foundCand {
		t.Error("pair missing from candidates")
	}
}

func TestAutoKLDetection(t *testing.T) {
	dsE, dsI := movers(8, 24)
	res := Link(&dsE, &dsI, DefaultParams(wnd, 12))
	if res.K < 1 || res.L < 1 {
		t.Errorf("auto k/l = (%d, %d), want >= 1", res.K, res.L)
	}
	// True pairs share ~24 bins; auto-k must not exceed that.
	if res.K > 24 {
		t.Errorf("auto k = %d too aggressive", res.K)
	}
}

func TestScoresRankTrueMatchFirst(t *testing.T) {
	dsE, dsI := movers(5, 20)
	res := Link(&dsE, &dsI, DefaultParams(wnd, 12))
	scores := res.Scores("ea")
	if len(scores) == 0 {
		t.Fatal("no candidate scores for ea")
	}
	if scores[0].V != "ia" {
		t.Errorf("top-ranked candidate for ea = %s, want ia", scores[0].V)
	}
}

func TestLinkOnSampledCab(t *testing.T) {
	src := datagen.Cab(datagen.CabConfig{NumTaxis: 24, Days: 2, MeanRecordIntervalSec: 400, Seed: 21})
	s := datagen.Sample(&src, datagen.SampleConfig{IntersectionRatio: 0.5, InclusionProbE: 0.7, InclusionProbI: 0.7, Seed: 22})
	res := Link(&s.E, &s.I, DefaultParams(wnd, 12))
	if !matching.Valid(res.Links) {
		// ST-Link links can share endpoints only if ambiguity elimination
		// failed — that would be a bug.
		t.Error("ST-Link produced conflicting links")
	}
	correct := 0
	for _, l := range res.Links {
		if s.Truth[l.U] == l.V {
			correct++
		}
	}
	if len(res.Links) > 0 && correct == 0 {
		t.Errorf("ST-Link linked %d pairs but none correct", len(res.Links))
	}
}

// TestEvidenceMatchesDirectDistance recounts every candidate's evidence
// from the two histories with geo.CellDistanceKm called per cell pair —
// what Link did before it read the stores' cell tables — on the fixtures
// above: co-occurrences and alibi pairs must be the same counts.
func TestEvidenceMatchesDirectDistance(t *testing.T) {
	cab := datagen.Cab(datagen.CabConfig{NumTaxis: 24, Days: 2, MeanRecordIntervalSec: 400, Seed: 21})
	sampled := datagen.Sample(&cab, datagen.SampleConfig{IntersectionRatio: 0.5, InclusionProbE: 0.7, InclusionProbI: 0.7, Seed: 22})
	moversE, moversI := movers(6, 20)
	alibiE, alibiI := alibied()
	alibis := 0
	for _, fx := range []struct {
		name     string
		dsE, dsI *model.Dataset
		w        model.Windowing
	}{
		{"movers", &moversE, &moversI, wnd},
		{"alibied", &alibiE, &alibiI, wnd},
		{"sampled cab", &sampled.E, &sampled.I, wnd},
	} {
		p := DefaultParams(fx.w, 12)
		res := Link(fx.dsE, fx.dsI, p)
		if len(res.Candidates) == 0 {
			t.Fatalf("%s: no candidates", fx.name)
		}
		runawayKm := p.Windowing.WidthMinutes() * p.MaxSpeedKmPerMin
		se := history.Build(fx.dsE, p.Windowing, p.SpatialLevel)
		si := history.Build(fx.dsI, p.Windowing, p.SpatialLevel)
		for _, c := range res.Candidates {
			hu, hv := se.History(c.U), si.History(c.V)
			co, alibi := 0, 0
			hu.EachWindow(func(w int64, _, _ int) {
				cu, _ := hu.WindowBins(w)
				cv, _ := hv.WindowBins(w)
				for _, a := range cu {
					for _, b := range cv {
						switch {
						case a == b:
							co++
						case geo.CellDistanceKm(a, b) > runawayKm:
							alibi++
						}
					}
				}
			})
			if c.Cooccurrences != co || c.AlibiPairs != alibi {
				t.Errorf("%s: %s-%s has %d co-occurrences and %d alibi pairs, direct count %d and %d",
					fx.name, c.U, c.V, c.Cooccurrences, c.AlibiPairs, co, alibi)
			}
			alibis += alibi
		}
	}
	if alibis == 0 {
		t.Fatal("no fixture produced an alibi pair: the distance path went unexercised")
	}
}

func TestEmptyDatasets(t *testing.T) {
	var e, i model.Dataset
	res := Link(&e, &i, DefaultParams(wnd, 12))
	if len(res.Links) != 0 || len(res.Candidates) != 0 {
		t.Error("empty inputs should produce nothing")
	}
}

// Scores returns the ranking scores of every candidate pair of one E
// entity, sorted descending: the ranking hit-precision@k reads.
func (r *Result) Scores(u model.EntityID) []PairScore {
	var out []PairScore
	for _, ps := range r.Candidates {
		if ps.U == u {
			out = append(out, ps)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		si := float64(out[i].Cooccurrences) + float64(out[i].DiverseLocations)/1000
		sj := float64(out[j].Cooccurrences) + float64(out[j].DiverseLocations)/1000
		if si != sj {
			return si > sj
		}
		return out[i].V < out[j].V
	})
	return out
}
