package history

import (
	"cmp"
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"slim/internal/geo"
	"slim/internal/model"
)

// fuzzRecordBytes is the size of one fuzzed record: entity, latitude and
// longitude offsets, radius, Unix time (any int64) and a byte of flags.
const fuzzRecordBytes = 15

// fuzzRecord is one decoded record with the two decisions its flags byte
// makes: whether it may go into the built prefix, and the rank of its
// (entity, window) group in the order the rest is added in.
type fuzzRecord struct {
	model.Record
	prefix bool
	rank   uint8
}

// decodeFuzzRecords reads at most 128 records: six entities over a
// 0.5° square, a fifth of them regions of 1–4 km radius.
func decodeFuzzRecords(data []byte) []fuzzRecord {
	var out []fuzzRecord
	for len(data) >= fuzzRecordBytes && len(out) < 128 {
		b := data[:fuzzRecordBytes]
		data = data[fuzzRecordBytes:]
		r := model.Record{
			Entity: model.EntityID(string(rune('a' + b[0]%6))),
			LatLng: geo.LatLng{
				Lat: 37.4 + float64(binary.LittleEndian.Uint16(b[1:]))/65535*0.5,
				Lng: -122.6 + float64(binary.LittleEndian.Uint16(b[3:]))/65535*0.5,
			},
			Unix: int64(binary.LittleEndian.Uint64(b[6:])),
		}
		if b[5] >= 205 {
			r.RadiusKm = 1 + 3*float64(b[5]-205)/50
		}
		out = append(out, fuzzRecord{Record: r, prefix: b[14]&1 == 1, rank: b[14] >> 1})
	}
	return out
}

// encodeFuzzRecords is decodeFuzzRecords' inverse for the seed corpus;
// prefix marks the records the built prefix may take.
func encodeFuzzRecords(recs []model.Record, prefix func(i int) bool) []byte {
	var out []byte
	for i, r := range recs {
		b := make([]byte, fuzzRecordBytes)
		b[0] = byte(r.Entity[0] - 'a')
		binary.LittleEndian.PutUint16(b[1:], uint16(math.Round((r.LatLng.Lat-37.4)/0.5*65535)))
		binary.LittleEndian.PutUint16(b[3:], uint16(math.Round((r.LatLng.Lng+122.6)/0.5*65535)))
		if r.RadiusKm > 0 {
			b[5] = 205 + byte(min(50, math.Round((r.RadiusKm-1)/3*50)))
		}
		binary.LittleEndian.PutUint64(b[6:], uint64(r.Unix))
		b[14] = byte(i*37) << 1
		if prefix(i) {
			b[14] |= 1
		}
		out = append(out, b...)
	}
	return out
}

// FuzzStoreAddMatchesBuild builds a store over part of a fuzzed record set
// and Adds the rest one record at a time, and holds the result to
// BuildGrouped over all of them: the entities, and per window the resolved
// cells in order and the record weights bit for bit; the average history
// size, every bin's df and IDF weight, the IDF table and the compiled
// views.
//
// A bin's weight is a sum, and a build sums a bin's records in time
// order, so the records are split and ordered the way that keeps the sums
// bit-equal without fixing the order the store sees windows and cells in:
// in each (entity, window) group, ordered as a build orders it, the built
// part is a prefix chosen by the flags, and the rest is added group by
// group in the fuzzed rank order, each group in its own order. An added
// window may therefore open before, between or after the built ones, and
// an added cell anywhere in its window.
func FuzzStoreAddMatchesBuild(f *testing.F) {
	for seed := int64(1); seed <= 3; seed++ {
		recs := randomRecords(60, seed)
		f.Add(encodeFuzzRecords(recs, func(i int) bool { return i < 35 }))
	}
	f.Add(encodeFuzzRecords([]model.Record{
		rec("a", 37.7, -122.4, math.MinInt64),
		rec("b", 37.7, -122.4, math.MaxInt64),
		rec("a", 37.5, -122.2, 0),
	}, func(i int) bool { return i == 1 }))
	f.Fuzz(checkAddMatchesBuild)
}

// checkAddMatchesBuild is FuzzStoreAddMatchesBuild's property over one
// input.
func checkAddMatchesBuild(t *testing.T, data []byte) {
	frs := decodeFuzzRecords(data)
	// Records equal in a build's sort key but for the radius would be
	// summed in an unspecified order: give them one radius.
	slices.SortStableFunc(frs, func(a, b fuzzRecord) int {
		return cmp.Or(cmp.Compare(a.Entity, b.Entity), cmp.Compare(a.Unix, b.Unix),
			cmp.Compare(a.LatLng.Lat, b.LatLng.Lat), cmp.Compare(a.LatLng.Lng, b.LatLng.Lng))
	})
	for i := 1; i < len(frs); i++ {
		if p, r := frs[i-1], &frs[i]; p.Entity == r.Entity && p.Unix == r.Unix && p.LatLng == r.LatLng {
			r.RadiusKm = p.RadiusKm
		}
	}
	type group struct {
		entity model.EntityID
		window int64
	}
	var built, all []model.Record
	var added []fuzzRecord
	rank := map[group]uint8{}
	open := map[group]bool{}
	for _, fr := range frs {
		all = append(all, fr.Record)
		g := group{fr.Entity, testWindowing.Window(fr.Unix)}
		if _, seen := open[g]; !seen {
			open[g] = true
		}
		if open[g] && fr.prefix {
			built = append(built, fr.Record)
			continue
		}
		if open[g] {
			open[g], rank[g] = false, fr.rank
		}
		fr.rank = rank[g]
		added = append(added, fr)
	}
	slices.SortStableFunc(added, func(a, b fuzzRecord) int { return cmp.Compare(a.rank, b.rank) })

	got := Build(&model.Dataset{Name: "D", Records: built}, testWindowing, 13)
	for _, fr := range added {
		got.Add(fr.Record)
	}
	g := (&model.Dataset{Name: "D", Records: all}).GroupByEntity(-1)
	want := BuildGrouped(&g, testWindowing, 13, 1)
	assertStoresBitEqual(t, got, want)
}

// assertStoresBitEqual holds every scoring observable of got to want's, bit
// for bit: entities, per window the resolved cells and the record weights,
// the average history size, every bin's df and IDF weight, the IDF table
// and the compiled views.
func assertStoresBitEqual(t *testing.T, got, want *Store) {
	t.Helper()
	if !slices.Equal(got.Entities(), want.Entities()) {
		t.Fatalf("entities %v, want %v", got.Entities(), want.Entities())
	}
	if math.Float64bits(got.AvgBins()) != math.Float64bits(want.AvgBins()) {
		t.Fatalf("average history size %v, want %v", got.AvgBins(), want.AvgBins())
	}
	bits := func(xs []float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	for _, e := range want.Entities() {
		hg, hw := got.History(e), want.History(e)
		if !slices.Equal(hg.Windows(), hw.Windows()) {
			t.Fatalf("%s: windows %v, want %v", e, hg.Windows(), hw.Windows())
		}
		for _, win := range hw.Windows() {
			cg, ng := hg.WindowBins(win)
			cw, nw := hw.WindowBins(win)
			if !slices.Equal(cg, cw) || !slices.Equal(bits(ng), bits(nw)) {
				t.Fatalf("%s window %d: cells %v weights %v, want %v %v", e, win, cg, ng, cw, nw)
			}
			for _, c := range cw {
				b := Bin{Window: win, Cell: c}
				if math.Float64bits(got.IDF(b)) != math.Float64bits(want.IDF(b)) {
					t.Fatalf("IDF(%v) = %v, want %v", b, got.IDF(b), want.IDF(b))
				}
			}
		}

		var vg, vw View
		tg, _ := got.CompiledView(e, &vg)
		tw, _ := want.CompiledView(e, &vw)
		ids := func(table []geo.CellGeom, cells []int32) []geo.CellID {
			out := make([]geo.CellID, len(cells))
			for j, c := range cells {
				out[j] = table[c].ID
			}
			return out
		}
		if !slices.Equal(vg.Windows, vw.Windows) || !slices.Equal(vg.Off, vw.Off) ||
			!slices.Equal(ids(tg, vg.Cells), ids(tw, vw.Cells)) || !slices.Equal(bits(vg.Counts), bits(vw.Counts)) ||
			!slices.Equal(vg.DF, vw.DF) || !slices.Equal(bits(weights(vg)), bits(weights(vw))) {
			t.Fatalf("%s: compiled view differs from a build's", e)
		}
		if !slices.Equal(bits(vg.IDFByDF), bits(vw.IDFByDF)) {
			t.Fatalf("%s: IDF table %v, want %v", e, vg.IDFByDF, vw.IDFByDF)
		}
	}
}
