package model

import (
	"bytes"
	"encoding/csv"
	"io"
	"math"
	"strconv"
	"testing"

	"slim/internal/geo"
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
		same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
		for k, w := range d.Records {
			g := back.Records[k]
			if g.Entity != w.Entity || g.Unix != w.Unix || !same(g.LatLng.Lat, w.LatLng.Lat) ||
				!same(g.LatLng.Lng, w.LatLng.Lng) || !same(g.RadiusKm, w.RadiusKm) {
				t.Fatalf("record %d read back as %+v, wrote %+v", k, g, w)
			}
		}
	})
}
