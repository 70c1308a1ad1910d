package model

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"testing"
	"unsafe"

	"slim/internal/geo"
	"slim/internal/testenv"
)

// writeCSVReference is WriteCSV as it was written over encoding/csv: five
// strings and a []string per record. It is the byte oracle of the
// append-based writer.
func writeCSVReference(w io.Writer, d *Dataset) error {
	regions := false
	for _, r := range d.Records {
		if r.RadiusKm > 0 {
			regions = true
			break
		}
	}
	cw := csv.NewWriter(w)
	header := []string{"entity", "lat", "lng", "unix"}
	if regions {
		header = append(header, "radius_km")
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, len(header))
	for _, r := range d.Records {
		row[0] = string(r.Entity)
		row[1] = strconv.FormatFloat(r.LatLng.Lat, 'f', -1, 64)
		row[2] = strconv.FormatFloat(r.LatLng.Lng, 'f', -1, 64)
		row[3] = strconv.FormatInt(r.Unix, 10)
		if regions {
			row[4] = strconv.FormatFloat(r.RadiusKm, 'f', -1, 64)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// FuzzWriteCSV writes a three-record dataset built from the fuzzed values
// and holds WriteCSV to two oracles: its bytes are writeCSVReference's,
// whatever the dataset holds, and a dataset Validate accepts reads back
// through ReadCSV unchanged, every float bit for bit. The committed corpus
// (testdata/fuzz) holds ids with a comma, a quote, a carriage return, a
// line feed, CRLF, a leading space, tab or U+00A0, and `\.`, plus a region
// record and a radius of -0.
func FuzzWriteCSV(f *testing.F) {
	f.Fuzz(func(t *testing.T, id1, id2 string, lat, lng float64, unix int64, radius float64) {
		d := Dataset{Name: "fuzz", Records: []Record{
			{Entity: EntityID(id1), LatLng: geo.LatLng{Lat: lat, Lng: lng}, Unix: unix, RadiusKm: radius},
			{Entity: EntityID(id2), LatLng: geo.LatLng{Lat: lng / 2, Lng: lat}, Unix: unix / 3},
			{Entity: EntityID(id1), LatLng: geo.LatLng{Lat: -lat, Lng: -lng}, Unix: -unix},
		}}
		var got, want bytes.Buffer
		if err := WriteCSV(&got, &d); err != nil {
			t.Fatal(err)
		}
		if err := writeCSVReference(&want, &d); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("WriteCSV wrote\n%q\nencoding/csv writes\n%q", got.Bytes(), want.Bytes())
		}
		if d.Validate() != nil {
			return
		}
		back, err := ReadCSV(&got, d.Name)
		if err != nil {
			t.Fatalf("a dataset Validate accepts does not read back: %v\n%q", err, want.Bytes())
		}
		if len(back.Records) != len(d.Records) {
			t.Fatalf("read back %d records, wrote %d", len(back.Records), len(d.Records))
		}
		requireSameRecords(t, back.Records, d.Records)
	})
}

// requireSameRecords fails the test unless got and want hold the same
// records, every float bit for bit.
func requireSameRecords(t *testing.T, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("read back %d records, wrote %d", len(got), len(want))
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for k, w := range want {
		g := got[k]
		if g.Entity != w.Entity || g.Unix != w.Unix || !same(g.LatLng.Lat, w.LatLng.Lat) ||
			!same(g.LatLng.Lng, w.LatLng.Lng) || !same(g.RadiusKm, w.RadiusKm) {
			t.Fatalf("record %d read back as %+v, wrote %+v", k, g, w)
		}
	}
}

// readCSVFixedBytes and readCSVBytesPerInputByte bound what ReadCSV
// allocates, garbage included, for an input of n bytes: the fixed part is
// a fast-path block buffer (128 KiB) and, past it, encoding/csv's buffers.
// Rows of one-byte fields and distinct ids cost the most per input byte —
// a record in a part and again in the result, the id's clone and its map
// entry — and a part is sized by the block's line feeds but never beyond
// one record per csvRowMinBytes.
const (
	readCSVFixedBytes        = 256 << 10
	readCSVBytesPerInputByte = 32
)

// readCSVReference is ReadCSV without its fast path: the encoding/csv
// loop (readRows) from byte 0.
func readCSVReference(in []byte, name string) (Dataset, error) {
	c := csvReader{ids: make(map[string]EntityID)}
	if err := c.readRows(bytes.NewReader(in)); err != nil {
		return Dataset{}, err
	}
	return c.dataset(name)
}

// requireReadAsReference fails the test unless ReadCSV reads in exactly as
// readCSVReference does: the same records bit for bit, every record of an
// id sharing one backing string, or errors with equal text.
func requireReadAsReference(t *testing.T, in []byte) Dataset {
	t.Helper()
	got, err := ReadCSV(bytes.NewReader(in), "fuzz")
	want, wantErr := readCSVReference(in, "fuzz")
	if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
		t.Fatalf("ReadCSV returns error %v, encoding/csv %v", err, wantErr)
	}
	if err != nil {
		return got
	}
	if (got.Records == nil) != (want.Records == nil) {
		t.Fatalf("ReadCSV returns nil records %v, encoding/csv %v", got.Records == nil, want.Records == nil)
	}
	requireSameRecords(t, got.Records, want.Records)
	backing := make(map[EntityID]*byte)
	for k, r := range got.Records {
		p := unsafe.StringData(string(r.Entity))
		if q, ok := backing[r.Entity]; ok && q != p {
			t.Fatalf("record %d's id %q has a second backing string", k, r.Entity)
		}
		backing[r.Entity] = p
	}
	return got
}

// FuzzReadCSV reads arbitrary bytes as a dataset CSV and holds ReadCSV to
// four oracles: it does not panic; it reads the input exactly as the
// encoding/csv loop does from byte 0 (requireReadAsReference), also when
// the input follows more than a block of valid rows, so that it reaches
// the fast path's hand-off to that loop; a dataset it returns reads back
// through WriteCSV bit for bit; it allocates within
// readCSVBytesPerInputByte per input byte beyond readCSVFixedBytes, on the
// least of three runs. The committed corpus (testdata/fuzz) holds a quoted
// id with a line feed, rows of 3 and 6 fields, 1e400, NaN, a BOM, CRLF
// line ends, a header-only file, a region column and an empty file, and
// (the late-* files) a quote, a bare quote, a lone carriage return, blank
// lines, a header-like row and a malformed row past the first MiB.
func FuzzReadCSV(f *testing.F) {
	// Ids of 8 KiB keep the prefix to 17 rows, so that reading it costs
	// each input little.
	var prefix bytes.Buffer
	prefix.WriteString("entity,lat,lng,unix\n")
	for k := 0; prefix.Len() <= csvBlockBytes; k++ {
		fmt.Fprintf(&prefix, "%08192d,%d.25,-%d.5,%d\n", k/4, k%90, k%180, k)
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		var d Dataset
		var err error
		n := testenv.LeastAllocated(func() { d, err = ReadCSV(bytes.NewReader(in), "fuzz") })
		budget := readCSVFixedBytes + readCSVBytesPerInputByte*uint64(len(in))
		if !testenv.RaceEnabled && n > budget {
			t.Fatalf("reading %d bytes allocated %d B, budget %d B", len(in), n, budget)
		}
		requireReadAsReference(t, in)
		requireReadAsReference(t, append(slices.Clip(prefix.Bytes()), in...))
		if err != nil {
			return
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("ReadCSV returned a dataset Validate refuses: %v", err)
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, &d); err != nil {
			t.Fatal(err)
		}
		back, err := ReadCSV(&buf, d.Name)
		if err != nil {
			t.Fatalf("a dataset ReadCSV returned does not read back: %v\n%q", err, buf.Bytes())
		}
		requireSameRecords(t, back.Records, d.Records)
	})
}

// TestCSVCodecSameUnderGOMAXPROCS: under GOMAXPROCS 1, 2 and 8, ReadCSV
// reads a multi-block input as the encoding/csv loop does — on the fast
// path with its rows grouped by entity and shuffled, when a quoted row
// late in the input hands it off, and when a row spelled like the header
// starts the second block, where it is a record — and WriteCSV writes
// encoding/csv's bytes.
func TestCSVCodecSameUnderGOMAXPROCS(t *testing.T) {
	plain := csvFixture(40_000).Bytes()
	rows := bytes.SplitAfter(plain, []byte{'\n'})[1:] // the header stays first
	rand.New(rand.NewSource(1)).Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	shuffled := append([]byte("entity,lat,lng,unix\n"), bytes.Join(rows, nil)...)
	late := append(slices.Clip(plain), "\"q,\"\"x\",1,2,3\nuser-000001,4,5,6\n"...)
	block := slices.Clip(csvFixture(10_000).Bytes()[:csvBlockBytes])
	block = append(block[:bytes.LastIndexByte(block, '\n')+1], bytes.Repeat([]byte{'\n'}, csvBlockBytes)...)[:csvBlockBytes]
	header := append(block, "entity,1,2,3\nuser-000001,4,5,6\n"...)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		for _, in := range [][]byte{plain, shuffled, late, header} {
			d := requireReadAsReference(t, in)
			if len(d.Records) == 0 {
				t.Fatalf("GOMAXPROCS %d: read no records", procs)
			}
			var got, want bytes.Buffer
			if err := WriteCSV(&got, &d); err != nil {
				t.Fatal(err)
			}
			if err := writeCSVReference(&want, &d); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("GOMAXPROCS %d: WriteCSV's %d bytes differ from encoding/csv's %d", procs, got.Len(), want.Len())
			}
		}
	}
}
