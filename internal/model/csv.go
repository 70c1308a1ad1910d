package model

import (
	"encoding/csv"
	"fmt"
	"io"
	"slices"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"slim/internal/geo"
)

// WriteCSV writes the dataset in the canonical CSV layout
// (entity,lat,lng,unix[,radius_km]) with a header row. The radius column
// appears only when at least one record is a region record.
//
// The bytes are encoding/csv's: numbers are strconv's shortest 'f' form
// and an id is quoted exactly when csv.Writer would quote it
// (AppendCSVField). Rows are appended into one reused buffer, so a write
// allocates the buffer and nothing per record.
func WriteCSV(w io.Writer, d *Dataset) error {
	regions := slices.ContainsFunc(d.Records, func(r Record) bool { return r.RadiusKm > 0 })
	buf := make([]byte, 0, csvWriteBuffer)
	buf = append(buf, "entity,lat,lng,unix"...)
	if regions {
		buf = append(buf, ",radius_km"...)
	}
	buf = append(buf, '\n')
	for i := range d.Records {
		r := &d.Records[i]
		buf = AppendCSVField(buf, string(r.Entity))
		buf = append(buf, ',')
		buf = strconv.AppendFloat(buf, r.LatLng.Lat, 'f', -1, 64)
		buf = append(buf, ',')
		buf = strconv.AppendFloat(buf, r.LatLng.Lng, 'f', -1, 64)
		buf = append(buf, ',')
		buf = strconv.AppendInt(buf, r.Unix, 10)
		if regions {
			buf = append(buf, ',')
			buf = strconv.AppendFloat(buf, r.RadiusKm, 'f', -1, 64)
		}
		buf = append(buf, '\n')
		if len(buf) >= csvWriteBuffer-csvRowSlack {
			if _, err := w.Write(buf); err != nil {
				return fmt.Errorf("model: writing csv: %w", err)
			}
			buf = buf[:0]
		}
	}
	if _, err := w.Write(buf); err != nil {
		return fmt.Errorf("model: writing csv: %w", err)
	}
	return nil
}

// csvWriteBuffer is the size of WriteCSV's row buffer, flushed once fewer
// than csvRowSlack bytes are free: room for any row whose id is shorter
// than about 3 KiB, so only a longer one makes the buffer grow.
const (
	csvWriteBuffer = 64 << 10
	csvRowSlack    = 4 << 10
)

// AppendCSVField appends s to buf as one CSV field, quoted exactly when
// encoding/csv's Writer quotes it (comma ','; UseCRLF off): when s is `\.`,
// holds a comma, a quote, a carriage return or a line feed, or starts
// with a Unicode space. A quoted field doubles its quotes and keeps every
// other byte.
func AppendCSVField(buf []byte, s string) []byte {
	if !csvNeedsQuotes(s) {
		return append(buf, s...)
	}
	buf = append(buf, '"')
	for {
		i := strings.IndexByte(s, '"')
		if i < 0 {
			break
		}
		buf = append(buf, s[:i+1]...)
		buf = append(buf, '"')
		s = s[i+1:]
	}
	buf = append(buf, s...)
	return append(buf, '"')
}

func csvNeedsQuotes(s string) bool {
	if s == "" {
		return false
	}
	if s == `\.` || strings.ContainsAny(s, ",\"\r\n") {
		return true
	}
	r, _ := utf8.DecodeRuneInString(s)
	return unicode.IsSpace(r)
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
		if line == 1 && row[0] == "entity" { // the header row
			continue
		}
		lat, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			return Dataset{}, badField(line, "lat", row[1], err)
		}
		lng, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			return Dataset{}, badField(line, "lng", row[2], err)
		}
		unix, err := strconv.ParseInt(row[3], 10, 64)
		if err != nil {
			return Dataset{}, badField(line, "unix", row[3], err)
		}
		var radius float64
		if len(row) == 5 && row[4] != "" {
			radius, err = strconv.ParseFloat(row[4], 64)
			if err != nil {
				return Dataset{}, badField(line, "radius", row[4], err)
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

// badField reports a field that does not parse. It quotes at most the
// first errFieldBytes bytes of the field, and wraps the parser's sentinel
// (strconv.ErrSyntax or ErrRange) rather than its error, which quotes the
// whole field again: a message stays short however long the field is.
func badField(line int, column, field string, err error) error {
	if ne, ok := err.(*strconv.NumError); ok {
		err = ne.Err
	}
	if len(field) > errFieldBytes {
		field = field[:errFieldBytes] + "..."
	}
	return fmt.Errorf("model: line %d: bad %s %q: %w", line, column, field, err)
}

const errFieldBytes = 64

// csvChunkRecords is how many records ReadCSV accumulates per chunk
// (192 KiB): large enough that the chunk list stays a few hundred entries
// at the paper's dataset size, small enough that a short file wastes
// little.
const csvChunkRecords = 4096
