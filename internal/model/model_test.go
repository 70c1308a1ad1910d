package model

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"maps"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"slim/internal/geo"
	"slim/internal/testenv"
)

func rec(e string, lat, lng float64, unix int64) Record {
	return Record{Entity: EntityID(e), LatLng: geo.LatLng{Lat: lat, Lng: lng}, Unix: unix}
}

func TestByEntitySortsAndGroups(t *testing.T) {
	d := Dataset{Name: "t", Records: []Record{
		rec("b", 1, 1, 30),
		rec("a", 2, 2, 20),
		rec("a", 3, 3, 10),
		rec("b", 4, 4, 10),
	}}
	m := d.ByEntity()
	if len(m) != 2 {
		t.Fatalf("groups = %d, want 2", len(m))
	}
	a := m["a"]
	if len(a) != 2 || a[0].Unix != 10 || a[1].Unix != 20 {
		t.Errorf("entity a records not time-sorted: %+v", a)
	}
}

func TestByEntityDeterministicTies(t *testing.T) {
	d := Dataset{Records: []Record{
		rec("a", 5, 9, 10),
		rec("a", 5, 2, 10),
		rec("a", 1, 7, 10),
	}}
	first := d.ByEntity()["a"]
	for i := 0; i < 10; i++ {
		again := d.ByEntity()["a"]
		for j := range first {
			if first[j] != again[j] {
				t.Fatal("tie-broken order is not deterministic")
			}
		}
	}
}

func TestEntitiesSorted(t *testing.T) {
	d := Dataset{Records: []Record{rec("z", 0, 0, 0), rec("a", 0, 0, 0), rec("m", 0, 0, 0), rec("a", 0, 0, 1)}}
	got := d.Entities()
	if len(got) != 3 || got[0] != "a" || got[1] != "m" || got[2] != "z" {
		t.Errorf("Entities() = %v", got)
	}
}

func TestTimeRange(t *testing.T) {
	d := Dataset{Records: []Record{rec("a", 0, 0, 50), rec("b", 0, 0, 10), rec("c", 0, 0, 99)}}
	lo, hi, ok := d.TimeRange()
	if !ok || lo != 10 || hi != 99 {
		t.Errorf("TimeRange = (%d, %d, %v)", lo, hi, ok)
	}
	empty := Dataset{}
	if _, _, ok := empty.TimeRange(); ok {
		t.Error("empty dataset should report ok=false")
	}
}

// TestGroupByEntityMatchesFilterThenByEntity: the one-pass grouping is
// ByEntity with every entity of at most minRecords records filtered out —
// same entities, sorted, each with the same records in the same order.
func TestGroupByEntityMatchesFilterThenByEntity(t *testing.T) {
	var d Dataset
	for k := 0; k < 400; k++ {
		e := fmt.Sprintf("e%02d", (k*k)%23)
		// Duplicate timestamps and positions exercise the tie-break.
		d.Records = append(d.Records, rec(e, float64(k%5), float64(k%3), int64(k%17)))
	}
	for _, minRecords := range []int{-1, 0, 5, 17, 1000} {
		g := d.GroupByEntity(minRecords)
		want := d.ByEntity()
		maps.DeleteFunc(want, func(_ EntityID, recs []Record) bool { return len(recs) <= minRecords })
		if len(g.Entities) != len(want) || len(g.Off) != len(g.Entities)+1 {
			t.Fatalf("min %d: %d entities (%d offsets), want %d", minRecords, len(g.Entities), len(g.Off), len(want))
		}
		if !slices.IsSorted(g.Entities) {
			t.Fatalf("min %d: entities not sorted", minRecords)
		}
		for k, e := range g.Entities {
			if !slices.Equal(g.Of(k), want[e]) {
				t.Fatalf("min %d: records of %s differ from ByEntity", minRecords, e)
			}
		}
		if gd := g.Dataset(); len(gd.Records) != g.Off[len(g.Entities)] {
			t.Fatalf("min %d: dataset view holds %d records, offsets end at %d", minRecords, len(gd.Records), g.Off[len(g.Entities)])
		}
	}
}

// groupByEntityCounting is the GroupByEntity that counted records in a map
// and looked the entity up again to scatter each: three map operations per
// record. It is the oracle of the one-lookup grouping.
func groupByEntityCounting(d *Dataset, minRecords int) Grouped {
	counts := make(map[EntityID]int)
	for _, r := range d.Records {
		counts[r.Entity]++
	}
	g := Grouped{Name: d.Name}
	for e, n := range counts {
		if n > minRecords {
			g.Entities = append(g.Entities, e)
		} else {
			counts[e] = -1
		}
	}
	slices.Sort(g.Entities)
	g.Off = make([]int, len(g.Entities)+1)
	for k, e := range g.Entities {
		g.Off[k+1] = g.Off[k] + counts[e]
		counts[e] = g.Off[k]
	}
	g.Records = make([]Record, g.Off[len(g.Entities)])
	for _, r := range d.Records {
		if at := counts[r.Entity]; at >= 0 {
			g.Records[at] = r
			counts[r.Entity] = at + 1
		}
	}
	for k := range g.Entities {
		sortRecords(g.Of(k))
	}
	return g
}

// TestGroupByEntityMatchesCountingGrouping: on seeded shuffles of a dataset
// whose entities hold 1 to 40 records, with duplicate timestamps and
// positions, the run-wise grouping returns what the map-counting one did
// for every MinRecords cut — the same entities, offsets and records in the
// same order. The first two trials group the records by entity, one run
// each: sorted by time with ties (which still sort) and then strictly
// increasing (which skip the sort); the rest are shuffles of short runs.
func TestGroupByEntityMatchesCountingGrouping(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var d Dataset
	for e := 0; e < 60; e++ {
		for k := 0; k <= e%40; k++ {
			d.Records = append(d.Records, rec(fmt.Sprintf("u%03d", (e*37)%61), float64(k%4), float64(rng.Intn(3)), int64(rng.Intn(20))))
		}
	}
	byEntity := func(a, b Record) int { return cmp.Or(cmp.Compare(a.Entity, b.Entity), compareRecords(a, b)) }
	for trial := 0; trial < 7; trial++ {
		switch trial {
		case 0:
			slices.SortStableFunc(d.Records, byEntity)
		case 1:
			for k := range d.Records {
				d.Records[k].Unix = int64(k) // strictly increasing within every run
			}
		default:
			rng.Shuffle(len(d.Records), func(i, j int) { d.Records[i], d.Records[j] = d.Records[j], d.Records[i] })
		}
		for _, minRecords := range []int{-1, 0, 5, 12, 39, 1000} {
			got, want := d.GroupByEntity(minRecords), groupByEntityCounting(&d, minRecords)
			if got.Name != want.Name || !slices.Equal(got.Entities, want.Entities) ||
				!slices.Equal(got.Off, want.Off) || !slices.Equal(got.Records, want.Records) {
				t.Fatalf("trial %d, min %d: grouping differs from the counting grouping", trial, minRecords)
			}
		}
	}
}

func TestValidate(t *testing.T) {
	good := Dataset{Records: []Record{rec("a", 1, 2, 3)}}
	if err := good.Validate(); err != nil {
		t.Errorf("valid dataset rejected: %v", err)
	}
	bad := Dataset{Records: []Record{{Entity: "", LatLng: geo.LatLng{}}}}
	if err := bad.Validate(); err == nil {
		t.Error("empty entity id should fail validation")
	}
	// The bad id starts the second run, after a run of a good one: the id
	// is checked once per run, and the error names the run's first record.
	laterRun := Dataset{Name: "t", Records: []Record{rec("a", 1, 2, 3), rec("a", 1, 2, 4), rec("b\nc", 1, 2, 5), rec("b\nc", 1, 2, 6)}}
	if err := laterRun.Validate(); err == nil || !strings.HasPrefix(err.Error(), `model: record 2 of "t": entity id`) {
		t.Errorf("a bad id starting record 2 validates as %v", err)
	}
	badPos := Dataset{Records: []Record{rec("a", 91, 0, 0)}}
	if err := badPos.Validate(); err == nil {
		t.Error("out-of-range latitude should fail validation")
	}
	for _, id := range []EntityID{"a\r\nb", "a\nb", "a\rb", "\n"} {
		if err := (&Dataset{Records: []Record{{Entity: id}}}).Validate(); err == nil {
			t.Errorf("id %q with a line break passed validation", id)
		}
	}
	for _, km := range []float64{0, 0.25, math.MaxFloat64} {
		if err := (&Dataset{Records: []Record{{Entity: "a", RadiusKm: km}}}).Validate(); err != nil {
			t.Errorf("radius %g rejected: %v", km, err)
		}
	}
	for _, km := range []float64{-1, math.Copysign(0, -1), math.Inf(1), math.NaN()} {
		if err := (&Dataset{Records: []Record{{Entity: "a", RadiusKm: km}}}).Validate(); err == nil {
			t.Errorf("radius %g passed validation", km)
		}
	}
}

// TestValidateRejectsOverflowingTimestamps: timestamps inside ±MaxUnix
// validate, and each lies in its window with the window's start k·|w|
// still an int64; a timestamp past the bound fails validation.
func TestValidateRejectsOverflowingTimestamps(t *testing.T) {
	const width = 900
	w := Windowing{WidthSeconds: width}
	for _, unix := range []int64{-MaxUnix, -1, 0, 4e17, MaxUnix} {
		if err := (&Dataset{Records: []Record{rec("a", 1, 2, unix)}}).Validate(); err != nil {
			t.Errorf("unix %d rejected: %v", unix, err)
		}
		if start := w.Window(unix) * width; start > unix || unix-start >= width {
			t.Errorf("unix %d lands in window %d starting at %d", unix, w.Window(unix), start)
		}
	}
	for _, unix := range []int64{math.MinInt64, -MaxUnix - 1, MaxUnix + 1, math.MaxInt64} {
		if err := (&Dataset{Records: []Record{rec("a", 1, 2, unix)}}).Validate(); err == nil {
			t.Errorf("unix %d passed validation", unix)
		}
	}
}

// TestWindowingAlignment: window k covers [k·|w|, (k+1)·|w|) of Unix
// time and nothing else anchors it. Window is ⌊unix / |w|⌋ on every int64,
// the extremes included, where negating a time or subtracting an anchor
// from it would wrap.
func TestWindowingAlignment(t *testing.T) {
	const width = 900
	w := Windowing{WidthSeconds: width} // 15-minute windows
	for _, c := range []struct{ unix, want int64 }{
		{0, 0},
		{-1, -1},
		{-width, -1},
		{-width - 1, -2},
		{1000, 1},
		{1799, 1},
		{1800, 2},
		{math.MinInt64, -10248191152060863}, // ⌊−2⁶³ / 900⌋
		{math.MaxInt64, 10248191152060862},
	} {
		if got := w.Window(c.unix); got != c.want {
			t.Errorf("Window(%d) = %d, want %d", c.unix, got, c.want)
		}
	}
	if w.WidthMinutes() != 15 {
		t.Errorf("WidthMinutes = %g", w.WidthMinutes())
	}
}

func TestWindowingNegativeTimes(t *testing.T) {
	w := Windowing{WidthSeconds: 60}
	if w.Window(-1) != -1 {
		t.Errorf("Window(-1) = %d, want -1", w.Window(-1))
	}
	if w.Window(-60) != -1 {
		t.Errorf("Window(-60) = %d, want -1", w.Window(-60))
	}
	if w.Window(-61) != -2 {
		t.Errorf("Window(-61) = %d, want -2", w.Window(-61))
	}
}

// TestWindowingQuickConsistency: every int64 time lies in its window,
// unix − k·|w| ∈ [0, |w|). The subtraction wraps exactly where k·|w|
// leaves int64, and the true remainder always fits.
func TestWindowingQuickConsistency(t *testing.T) {
	w := Windowing{WidthSeconds: 900}
	f := func(unix int64) bool {
		rem := unix - w.Window(unix)*w.WidthSeconds
		return 0 <= rem && rem < w.WidthSeconds
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d := Dataset{Name: "rt", Records: []Record{
		rec("cab-1", 37.7749, -122.4194, 1210000000),
		rec("cab-2", 37.78, -122.41, 1210000100),
	}}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, &d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf, "rt")
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != len(d.Records) {
		t.Fatalf("round trip lost records: %d vs %d", len(got.Records), len(d.Records))
	}
	for i := range d.Records {
		if got.Records[i] != d.Records[i] {
			t.Errorf("record %d mismatch: %+v vs %+v", i, got.Records[i], d.Records[i])
		}
	}
}

// TestReadCSVInternsEntityIDs: encoding/csv hands out fields as substrings
// of one string per line, so an id taken as is would keep its whole line
// alive. Every record of an entity must share one backing string, and a
// load must retain little beyond the records themselves.
func TestReadCSVInternsEntityIDs(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("heap budgets are meaningless under the race detector")
	}
	const records = 50_000
	buf := csvFixture(records)
	before := testenv.LiveHeap()
	d, err := ReadCSV(buf, "x")
	if err != nil {
		t.Fatal(err)
	}
	after := testenv.LiveHeap()
	runtime.KeepAlive(buf) // live across both readings, so it cancels out
	if len(d.Records) != records {
		t.Fatalf("read %d records, want %d", len(d.Records), records)
	}
	for k := 1; k < records; k++ {
		a, b := d.Records[k-1].Entity, d.Records[k].Entity
		if a == b && unsafe.StringData(string(a)) != unsafe.StringData(string(b)) {
			t.Fatalf("records %d and %d of %s do not share their id's bytes", k-1, k, a)
		}
	}
	perRecord := float64(after-before) / records
	t.Logf("%.1f B retained per record (a Record is %d B)", perRecord, unsafe.Sizeof(Record{}))
	if perRecord >= 60 {
		t.Errorf("load retains %.1f B per record, want < 60", perRecord)
	}
	runtime.KeepAlive(d)
}

// csvFixture is a headed CSV of n point records, twelve per entity (the
// paper's SM density), in the shape the generators write.
func csvFixture(n int) *bytes.Buffer {
	var buf bytes.Buffer
	buf.WriteString("entity,lat,lng,unix\n")
	for k := 0; k < n; k++ {
		fmt.Fprintf(&buf, "user-%06d,%.7f,%.7f,%d\n", k/12, 37.5+float64(k%997)*1e-4, -122.3-float64(k%991)*1e-4, 1_200_000_000+k)
	}
	return &buf
}

// TestReadCSVAllocatesLittleBeyondItsResult budgets what a load allocates
// in total, garbage included — it is what sets a process's peak while two
// 17 MB sides load at the paper's scale. The fast path allocates no string
// per line: the parts records are written into are 1× the records
// returned, the result 1×, the ids and their table ≈ 0.3×, measured 2.34×
// in all. The ring of block buffers, GOMAXPROCS+2 of csvBlockBytes, is
// counted apart, since it grows with the core count and not the input.
// The budget is 2.5× beyond it. encoding/csv's loop allocated 3.3× (a
// string per line, ≈ 1.3×), and growing one slice by append and cloning
// it to size allocated 7.3×.
func TestReadCSVAllocatesLittleBeyondItsResult(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation budgets are meaningless under the race detector")
	}
	const records = 200_000
	buf := csvFixture(records)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	d, err := ReadCSV(buf, "x")
	runtime.ReadMemStats(&after)
	if err != nil || len(d.Records) != records {
		t.Fatalf("read %d records, err %v; want %d", len(d.Records), err, records)
	}
	returned := float64(records) * float64(unsafe.Sizeof(Record{}))
	ring := float64((runtime.GOMAXPROCS(0) + 2) * csvBlockBytes)
	ratio := (float64(after.TotalAlloc-before.TotalAlloc) - ring) / returned
	t.Logf("allocated %.2fx the %.1f MB returned beside a %.1f MB ring", ratio, returned/1e6, ring/1e6)
	if ratio > 2.5 {
		t.Errorf("load allocates %.2fx the bytes it returns beside the ring, budget 2.5x", ratio)
	}
}

// failAfter accepts n writes, then fails every one and counts it.
type failAfter struct{ n, failed int }

var errWriteFailed = errors.New("write failed")

func (f *failAfter) Write(p []byte) (int, error) {
	if f.n == 0 {
		f.failed++
		return 0, errWriteFailed
	}
	f.n--
	return len(p), nil
}

// TestWriteCSVReturnsWriteError: a write that fails part way through a
// multi-block dataset ends WriteCSV with that error, and no block is
// written after it.
func TestWriteCSVReturnsWriteError(t *testing.T) {
	d, err := ReadCSV(csvFixture(5*csvWriteRows), "x")
	if err != nil {
		t.Fatal(err)
	}
	w := &failAfter{n: 2}
	if err := WriteCSV(w, &d); !errors.Is(err, errWriteFailed) {
		t.Fatalf("WriteCSV returned %v, want %v", err, errWriteFailed)
	}
	if w.n != 0 || w.failed != 1 {
		t.Fatalf("%d writes before the failure and %d failed, want 2 and 1", 2-w.n, w.failed)
	}
}

func TestReadCSVErrors(t *testing.T) {
	cases := []string{
		"entity,lat,lng,unix\na,bad,0,0\n",
		"entity,lat,lng,unix\na,0,bad,0\n",
		"entity,lat,lng,unix\na,0,0,bad\n",
		"a,0,0\n", // wrong field count
	}
	for _, c := range cases {
		if _, err := ReadCSV(strings.NewReader(c), "x"); err == nil {
			t.Errorf("expected error for %q", c)
		}
	}
	// No header is fine.
	d, err := ReadCSV(strings.NewReader("a,1,2,3\n"), "x")
	if err != nil || len(d.Records) != 1 {
		t.Errorf("headerless csv should parse: %v", err)
	}
}

// BenchmarkReadCSV and BenchmarkWriteCSV move 200,000 rows of csvFixture;
// run them at -cpu 1,2 to see what the workers add.
func BenchmarkReadCSV(b *testing.B) {
	in := csvFixture(200_000).Bytes()
	b.SetBytes(int64(len(in)))
	for b.Loop() {
		if _, err := ReadCSV(bytes.NewReader(in), "x"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteCSV(b *testing.B) {
	d, err := ReadCSV(csvFixture(200_000), "x")
	if err != nil {
		b.Fatal(err)
	}
	for b.Loop() {
		if err := WriteCSV(io.Discard, &d); err != nil {
			b.Fatal(err)
		}
	}
}
