package model

import (
	"encoding/csv"
	"fmt"
	"io"
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
//
// The record count is unknown until the input ends, so records accumulate
// in fixed-size chunks that are concatenated once into an exactly sized
// slice: a load allocates twice what it returns, where growing one slice
// by append allocated five times that and left a quarter of it unused.
func ReadCSV(r io.Reader, name string) (Dataset, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	cr.ReuseRecord = true
	d := Dataset{Name: name}
	ids := make(map[string]EntityID)
	var full [][]Record
	chunk := make([]Record, 0, csvChunkRecords)
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
		if len(chunk) == cap(chunk) {
			full = append(full, chunk)
			chunk = make([]Record, 0, csvChunkRecords)
		}
		chunk = append(chunk, Record{
			Entity:   id,
			LatLng:   geo.LatLngFromDegrees(lat, lng),
			Unix:     unix,
			RadiusKm: radius,
		})
	}
	if n := len(full)*csvChunkRecords + len(chunk); n > 0 { // no rows leave Records nil
		d.Records = make([]Record, 0, n)
	}
	for k, c := range full {
		d.Records = append(d.Records, c...)
		full[k] = nil // collectable before the next one is copied
	}
	d.Records = append(d.Records, chunk...)
	if err := d.Validate(); err != nil {
		return Dataset{}, err
	}
	return d, nil
}

// csvChunkRecords is how many records ReadCSV accumulates per chunk
// (192 KiB): large enough that the chunk list stays a few hundred entries
// at the paper's dataset size, small enough that a short file wastes
// little.
const csvChunkRecords = 4096
