package model

import (
	"encoding/csv"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"

	"slim/internal/geo"
)

// csvHeader is the canonical column layout for dataset CSV files. The
// radius_km column is optional: it is written only when the dataset holds
// region records, and accepted but not required when reading.
var (
	csvHeader       = []string{"entity", "lat", "lng", "unix"}
	csvHeaderRegion = []string{"entity", "lat", "lng", "unix", "radius_km"}
)

// WriteCSV writes the dataset in the canonical CSV layout
// (entity,lat,lng,unix[,radius_km]) with a header row. The radius column
// appears only when at least one record is a region record.
func WriteCSV(w io.Writer, d *Dataset) error {
	regions := false
	for _, r := range d.Records {
		if r.RadiusKm > 0 {
			regions = true
			break
		}
	}
	cw := csv.NewWriter(w)
	header := csvHeader
	if regions {
		header = csvHeaderRegion
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("model: writing csv header: %w", err)
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
			return fmt.Errorf("model: writing csv row: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a dataset from the canonical CSV layout. A header row is
// detected and skipped if present; the radius_km column is optional.
//
// encoding/csv hands out fields as substrings of one string per line, so
// keeping a field keeps its whole line alive. Entity ids are therefore
// interned: every record of one entity shares a single backing string
// cloned off the first line that named it.
func ReadCSV(r io.Reader, name string) (Dataset, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	cr.ReuseRecord = true
	d := Dataset{Name: name}
	ids := make(map[string]EntityID)
	line := 0
	for {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return Dataset{}, fmt.Errorf("model: reading csv: %w", err)
		}
		line++
		if len(row) != 4 && len(row) != 5 {
			return Dataset{}, fmt.Errorf("model: line %d: %d fields, want 4 or 5", line, len(row))
		}
		if line == 1 && row[0] == csvHeader[0] {
			continue
		}
		lat, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			return Dataset{}, fmt.Errorf("model: line %d: bad lat %q: %w", line, row[1], err)
		}
		lng, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			return Dataset{}, fmt.Errorf("model: line %d: bad lng %q: %w", line, row[2], err)
		}
		unix, err := strconv.ParseInt(row[3], 10, 64)
		if err != nil {
			return Dataset{}, fmt.Errorf("model: line %d: bad unix %q: %w", line, row[3], err)
		}
		var radius float64
		if len(row) == 5 && row[4] != "" {
			radius, err = strconv.ParseFloat(row[4], 64)
			if err != nil {
				return Dataset{}, fmt.Errorf("model: line %d: bad radius %q: %w", line, row[4], err)
			}
			if radius < 0 {
				return Dataset{}, fmt.Errorf("model: line %d: negative radius %g", line, radius)
			}
		}
		id, ok := ids[row[0]]
		if !ok {
			id = EntityID(strings.Clone(row[0]))
			ids[string(id)] = id
		}
		d.Records = append(d.Records, Record{
			Entity:   id,
			LatLng:   geo.LatLngFromDegrees(lat, lng),
			Unix:     unix,
			RadiusKm: radius,
		})
	}
	if err := d.Validate(); err != nil {
		return Dataset{}, err
	}
	// Growing by append leaves up to a quarter of the capacity unused.
	d.Records = slices.Clone(d.Records)
	return d, nil
}
