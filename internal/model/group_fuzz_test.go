package model_test

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"slim/internal/datagen"
	"slim/internal/geo"
	"slim/internal/model"
)

// fuzzIDs are the few entity ids a fuzzed record can carry.
var fuzzIDs = func() []model.EntityID {
	ids := make([]model.EntityID, 8)
	for k := range ids {
		ids[k] = model.EntityID(fmt.Sprintf("u%d", k))
	}
	return ids
}()

// decodeRecords reads four bytes a record so ids, times and positions
// collide often. The first byte holds the id (its low three bits), a
// radius (bit 3) and the latitude's sign (bit 4, which makes -0 from a
// zero latitude); the others are the time and the latitude and longitude
// in quarter degrees.
func decodeRecords(data []byte) []model.Record {
	recs := make([]model.Record, 0, len(data)/4)
	for ; len(data) >= 4; data = data[4:] {
		lat := float64(int8(data[2])) / 4
		if data[0]&16 != 0 {
			lat = -lat
		}
		recs = append(recs, model.Record{
			Entity:   fuzzIDs[data[0]&7],
			LatLng:   geo.LatLng{Lat: lat, Lng: float64(int8(data[3])) / 4},
			Unix:     int64(data[1]),
			RadiusKm: float64(data[0] >> 3 & 1),
		})
	}
	return recs
}

// encodeRecords is decodeRecords' inverse over records drawn from its
// domain.
func encodeRecords(recs []model.Record) []byte {
	out := make([]byte, 0, 4*len(recs))
	for _, r := range recs {
		b0 := byte(slices.Index(fuzzIDs, r.Entity)) | byte(r.RadiusKm)<<3
		lat := r.LatLng.Lat
		if math.Signbit(lat) {
			b0, lat = b0|16, -lat
		}
		out = append(out, b0, byte(r.Unix), byte(int8(lat*4)), byte(int8(r.LatLng.Lng*4)))
	}
	return out
}

// sampledFuzzSeed is a sampled workload's E side written by WriteCSV and
// read back, mapped into decodeRecords' domain by rank: ids in first-seen
// order, times and coordinates to their rank among the side's distinct
// values, which keeps every entity's run strictly increasing.
func sampledFuzzSeed(t testing.TB) []model.Record {
	ground := datagen.SM(datagen.SMConfig{NumUsers: 24, Days: 4, AvgRecords: 10, Seed: 1})
	s := datagen.Sample(&ground, datagen.SampleConfig{SizePerSide: len(fuzzIDs), Seed: 2})
	var buf bytes.Buffer
	if err := model.WriteCSV(&buf, &s.E); err != nil {
		t.Fatal(err)
	}
	e, err := model.ReadCSV(&buf, "E")
	if err != nil {
		t.Fatal(err)
	}
	rank := func(key func(model.Record) float64) func(model.Record) int {
		var vals []float64
		for _, r := range e.Records {
			vals = append(vals, key(r))
		}
		slices.Sort(vals)
		vals = slices.Compact(vals)
		return func(r model.Record) int { i, _ := slices.BinarySearch(vals, key(r)); return i }
	}
	unix := rank(func(r model.Record) float64 { return float64(r.Unix) })
	lat := rank(func(r model.Record) float64 { return r.LatLng.Lat })
	lng := rank(func(r model.Record) float64 { return r.LatLng.Lng })
	var ids []model.EntityID
	out := make([]model.Record, len(e.Records))
	for k, r := range e.Records {
		id := slices.Index(ids, r.Entity)
		if id < 0 {
			id, ids = len(ids), append(ids, r.Entity)
		}
		if unix(r) > 255 || lat(r) > 127 || lng(r) > 127 {
			t.Fatalf("sampled seed does not fit decodeRecords: %d records", len(e.Records))
		}
		out[k] = model.Record{
			Entity: fuzzIDs[id],
			LatLng: geo.LatLng{Lat: float64(lat(r)) / 4, Lng: float64(lng(r)) / 4},
			Unix:   int64(unix(r)),
		}
	}
	return out
}

// byTime orders records by time alone, keeping the file order of ties.
func byTime(recs []model.Record) []model.Record {
	recs = slices.Clone(recs)
	slices.SortStableFunc(recs, func(a, b model.Record) int { return cmp.Compare(a.Unix, b.Unix) })
	return recs
}

// oneIncreasingRunEach reports whether every entity's records are one run,
// strictly increasing in (time, latitude, longitude): the layout
// GroupByEntity groups without a copy.
func oneIncreasingRunEach(recs []model.Record) bool {
	seen := make(map[model.EntityID]bool)
	for k, r := range recs {
		if k > 0 && r.Entity == recs[k-1].Entity {
			p := recs[k-1]
			if cmp.Or(cmp.Compare(p.Unix, r.Unix), cmp.Compare(p.LatLng.Lat, r.LatLng.Lat), cmp.Compare(p.LatLng.Lng, r.LatLng.Lng)) >= 0 {
				return false
			}
			continue
		}
		if seen[r.Entity] {
			return false
		}
		seen[r.Entity] = true
	}
	return true
}

// sameRecords compares two record lists field by field, floats by their
// bits.
func sameRecords(a, b []model.Record) bool {
	bits := math.Float64bits
	return slices.EqualFunc(a, b, func(x, y model.Record) bool {
		return x.Entity == y.Entity && x.Unix == y.Unix && bits(x.LatLng.Lat) == bits(y.LatLng.Lat) &&
			bits(x.LatLng.Lng) == bits(y.LatLng.Lng) && bits(x.RadiusKm) == bits(y.RadiusKm)
	})
}

// requireReferenceGrouping checks GroupByEntity against the reference
// grouping, ByEntity (a stable gather by id, then each entity sorted)
// with the MinRecords filter applied after: the same entities, each with
// the same records bit for bit. The caller's records must not move, and
// the grouping must index them exactly when every entity is one strictly
// increasing run.
func requireReferenceGrouping(t *testing.T, recs []model.Record, minRecords int) {
	t.Helper()
	d := model.Dataset{Name: "F", Records: recs}
	before := slices.Clone(recs)
	g := d.GroupByEntity(minRecords)
	if !sameRecords(recs, before) {
		t.Fatal("GroupByEntity wrote to the caller's records")
	}
	want := d.ByEntity()
	var ids []model.EntityID
	for e, rs := range want {
		if len(rs) > minRecords {
			ids = append(ids, e)
		}
	}
	slices.Sort(ids)
	if g.Name != d.Name || !slices.Equal(g.Entities, ids) || len(g.Start) != len(ids) || len(g.Len) != len(ids) {
		t.Fatalf("min %d: entities %v (%d starts, %d lengths), want %v", minRecords, g.Entities, len(g.Start), len(g.Len), ids)
	}
	for k, e := range ids {
		if !sameRecords(g.Of(k), want[e]) {
			t.Fatalf("min %d: %s grouped as %v, want %v", minRecords, e, g.Of(k), want[e])
		}
	}
	if aliased, want := unsafe.SliceData(g.Records) == unsafe.SliceData(recs), oneIncreasingRunEach(recs); aliased != want {
		t.Fatalf("min %d: records aliased %v, want %v", minRecords, aliased, want)
	}
}

// FuzzGroupByEntity holds the grouping to its reference on records with
// few ids and colliding times and positions, at a fuzzed MinRecords.
// Seeds: a sampled workload as WriteCSV writes it (one strictly increasing
// run per entity), the same records in time order, one record
// duplicated, an entity split into two runs, and an entity holding
// exactly MinRecords records.
func FuzzGroupByEntity(f *testing.F) {
	sample := sampledFuzzSeed(f)
	if !oneIncreasingRunEach(sample) {
		f.Fatal("the sampled seed is not one strictly increasing run per entity")
	}
	first := 1 // the first entity's record count
	for first < len(sample) && sample[first].Entity == sample[0].Entity {
		first++
	}
	split := append(slices.Delete(slices.Clone(sample), first-1, first), sample[first-1])
	f.Add(encodeRecords(sample), int8(-1))
	f.Add(encodeRecords(byTime(sample)), int8(5))
	f.Add(encodeRecords(slices.Insert(slices.Clone(sample), 3, sample[3])), int8(0))
	f.Add(encodeRecords(split), int8(-1))
	f.Add(encodeRecords(sample), int8(first))
	f.Fuzz(func(t *testing.T, data []byte, minRecords int8) {
		requireReferenceGrouping(t, decodeRecords(data), int(minRecords))
	})
}

// TestGroupByEntityAliasMatchesCopy: both sides of a sampled SM workload
// are one strictly increasing run per entity, so they are grouped without
// a copy; the same records shuffled take the copy path, and every entity
// reads the same records through Of on both paths.
func TestGroupByEntityAliasMatchesCopy(t *testing.T) {
	ground := datagen.SM(datagen.SMConfig{NumUsers: 2000, Days: 26, AvgRecords: 12, Seed: 1})
	s := datagen.Sample(&ground, datagen.SampleConfig{Seed: 2})
	rng := rand.New(rand.NewSource(3))
	for _, side := range []model.Dataset{s.E, s.I} {
		shuffled := model.Dataset{Name: side.Name, Records: slices.Clone(side.Records)}
		rng.Shuffle(len(shuffled.Records), func(i, j int) {
			shuffled.Records[i], shuffled.Records[j] = shuffled.Records[j], shuffled.Records[i]
		})
		for _, minRecords := range []int{-1, 5, 12} {
			alias, copied := side.GroupByEntity(minRecords), shuffled.GroupByEntity(minRecords)
			if unsafe.SliceData(alias.Records) != unsafe.SliceData(side.Records) {
				t.Fatalf("%s, min %d: a sampled side was copied", side.Name, minRecords)
			}
			if unsafe.SliceData(copied.Records) == unsafe.SliceData(shuffled.Records) {
				t.Fatalf("%s, min %d: shuffled records were not copied", side.Name, minRecords)
			}
			if !slices.Equal(alias.Entities, copied.Entities) || len(alias.Entities) == 0 {
				t.Fatalf("%s, min %d: %d entities aliased, %d copied", side.Name, minRecords, len(alias.Entities), len(copied.Entities))
			}
			for k, e := range alias.Entities {
				if !sameRecords(alias.Of(k), copied.Of(k)) {
					t.Fatalf("%s, min %d: %s differs between the alias and the copy", side.Name, minRecords, e)
				}
			}
		}
	}
}
