package model

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
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
// (AppendCSVField). Rows are formatted in blocks of csvWriteRows on
// GOMAXPROCS workers, block b on worker b mod GOMAXPROCS, each into one
// of its two reused buffers, and written in row order from the calling
// goroutine. A write allocates the workers and their buffers and nothing
// per record.
func WriteCSV(w io.Writer, d *Dataset) error {
	regions := slices.ContainsFunc(d.Records, func(r Record) bool { return r.RadiusKm > 0 })
	blocks := max(1, (len(d.Records)+csvWriteRows-1)/csvWriteRows) // block 0 carries the header
	type lane struct{ full, free chan []byte }
	lanes := make([]lane, runtime.GOMAXPROCS(0))
	var wg sync.WaitGroup
	for k := range lanes {
		l := lane{full: make(chan []byte, 2), free: make(chan []byte, 2)} // a lane's two buffers fit either
		l.free <- make([]byte, 0, csvWriteBuffer)
		l.free <- make([]byte, 0, csvWriteBuffer)
		lanes[k] = l
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := k; b < blocks; b += len(lanes) {
				buf := (<-l.free)[:0]
				if b == 0 {
					buf = appendCSVHeader(buf, regions)
				}
				recs := d.Records[b*csvWriteRows : min(len(d.Records), (b+1)*csvWriteRows)]
				l.full <- appendCSVRows(buf, recs, regions)
			}
		}()
	}
	// Every block is taken, also after a failed write, so that no worker
	// waits for a buffer that does not come back.
	var err error
	for b := range blocks {
		l := lanes[b%len(lanes)]
		buf := <-l.full
		if err == nil {
			if _, werr := w.Write(buf); werr != nil {
				err = fmt.Errorf("model: writing csv: %w", werr)
			}
		}
		l.free <- buf
	}
	wg.Wait()
	return err
}

func appendCSVHeader(buf []byte, regions bool) []byte {
	buf = append(buf, "entity,lat,lng,unix"...)
	if regions {
		buf = append(buf, ",radius_km"...)
	}
	return append(buf, '\n')
}

func appendCSVRows(buf []byte, recs []Record, regions bool) []byte {
	for i := range recs {
		r := &recs[i]
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
	}
	return buf
}

// csvWriteRows is how many rows WriteCSV formats per block, and
// csvWriteBuffer the size of each block buffer: 128 bytes a row, room for
// any row whose id is shorter than about 60 bytes, so only a longer one
// makes a buffer grow (once; buffers are reused).
const (
	csvWriteRows   = 512
	csvWriteBuffer = csvWriteRows * 128
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
// The reference parser is encoding/csv (readRows). Most inputs never
// reach it: ReadCSV reads line-aligned blocks of up to csvBlockBytes into
// a ring of reused buffers and parses them on GOMAXPROCS workers, splitting
// each row at its commas with no string per line, into records written
// once into a part sized by the block's line count. A block that holds a
// quote or a carriage return, or a row that is not four or five fields
// that parse, is one the fast path does not claim to read as encoding/csv
// does: from the first such block on, the blocks in flight after it and
// the rest of the input go to readRows, which resumes the row count (and
// with it the header rule and error lines) where the fast path stopped. A
// dataset or an error is therefore exactly readRows' over the whole input.
//
// Entity ids are interned across blocks: every record of one entity shares
// a single backing string. The parts are concatenated once into an exactly
// sized slice.
func ReadCSV(r io.Reader, name string) (Dataset, error) {
	c := csvReader{ids: make(map[string]EntityID)}
	rest := c.readBlocks(r)
	if rest != nil {
		if err := c.readRows(rest); err != nil {
			return Dataset{}, err
		}
	}
	return c.dataset(name)
}

// csvReader is the state one ReadCSV carries from the fast path into
// readRows: the records parsed so far, the rows and lines they came from,
// and the id table.
type csvReader struct {
	parts [][]Record
	rows  int // non-blank rows read, the header included: the line numbers errors report
	lines int // line feeds read: where readRows' csv.ParseError lines start

	mu  sync.Mutex // guards ids against the workers
	ids map[string]EntityID
}

// csvBlock is one slot of the fast path's ring.
type csvBlock struct {
	buf   []byte // the slot's buffer, reused
	data  []byte // the block: whole lines of buf, the last one unterminated only at the end of the input
	first bool   // the block starts the input, so its first row may be the header
	done  chan struct{}

	ok    bool // the block holds no quote and no carriage return, and every row parsed
	recs  []Record
	rows  int
	lines int
}

const (
	// csvBlockBytes is the size of a fast-path block buffer.
	csvBlockBytes = 128 << 10
	// csvRowMinBytes is the shortest row that can parse, `,0,0,0` and its
	// line feed: a part never needs room for more rows than its bytes
	// hold, whatever its line count says.
	csvRowMinBytes = 7
)

// readBlocks parses r on the fast path until the input ends, when it
// returns nil, or until a block the fast path does not read, when it
// returns a reader over that block, the blocks in flight after it and the
// rest of r. At most GOMAXPROCS+2 blocks are held at once.
func (c *csvReader) readBlocks(r io.Reader) io.Reader {
	workers := runtime.GOMAXPROCS(0)
	ring := make([]csvBlock, workers+2)
	var carry []byte // the unterminated line after the last full block
	work := make(chan *csvBlock)
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			seen := make(map[string]EntityID)
			for b := range work {
				c.parseBlock(b, seen)
			}
		}()
	}
	defer func() {
		close(work)
		wg.Wait()
	}()
	head, inFlight, started, eof := 0, 0, false, false
	for {
		if inFlight == len(ring) || (eof && inFlight > 0) {
			b := &ring[head]
			<-b.done
			if !b.ok {
				rest := make([]io.Reader, 0, inFlight+2)
				for k := range inFlight {
					rest = append(rest, bytes.NewReader(ring[(head+k)%len(ring)].data))
				}
				return io.MultiReader(append(rest, bytes.NewReader(carry), r)...)
			}
			c.parts = append(c.parts, b.recs)
			c.rows += b.rows
			c.lines += b.lines
			b.recs = nil
			head, inFlight = (head+1)%len(ring), inFlight-1
			continue
		}
		if eof {
			return nil
		}
		b := &ring[(head+inFlight)%len(ring)]
		if b.buf == nil {
			b.buf, b.done = make([]byte, csvBlockBytes), make(chan struct{}, 1)
		}
		n := copy(b.buf, carry)
		m, err := io.ReadFull(r, b.buf[n:])
		n += m
		b.data, b.first, b.ok = b.buf[:n], !started, false
		started = true
		carry = carry[:0]
		inFlight++
		switch {
		case err == io.EOF || err == io.ErrUnexpectedEOF:
			eof = true
		case err != nil: // readRows reports it after the bytes that came before it
			r, eof = errReader{err}, true
			b.done <- struct{}{}
			continue
		default:
			end := bytes.LastIndexByte(b.data, '\n') + 1
			if end == 0 { // a line longer than a block
				b.done <- struct{}{}
				continue
			}
			b.data, carry = b.data[:end], append(carry, b.data[end:]...)
		}
		work <- b
	}
}

// errReader returns the error a read of the input failed with.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// parseBlock parses b.data on the fast path: rows split at commas, blank
// lines skipped as encoding/csv skips them, the header skipped when it is
// the input's first row. It sets b.ok only when every row parsed and the
// block holds nothing encoding/csv would read differently.
func (c *csvReader) parseBlock(b *csvBlock, seen map[string]EntityID) {
	defer func() { b.done <- struct{}{} }()
	data := b.data
	if bytes.IndexByte(data, '"') >= 0 || bytes.IndexByte(data, '\r') >= 0 {
		return
	}
	b.lines = bytes.Count(data, []byte{'\n'})
	b.recs = make([]Record, 0, min(b.lines+1, len(data)/csvRowMinBytes+1))
	b.rows = 0
	var id EntityID
	var f [5][]byte
	for len(data) > 0 {
		line := data
		if k := bytes.IndexByte(data, '\n'); k >= 0 {
			line, data = data[:k], data[k+1:]
		} else {
			data = nil
		}
		if len(line) == 0 {
			continue
		}
		b.rows++
		fields := splitCSVRow(line, &f)
		if fields != 4 && fields != 5 {
			return
		}
		if b.first && b.rows == 1 && string(f[0]) == "entity" {
			continue
		}
		r, err := parseRow(b.rows, f[:fields])
		if err != nil {
			return
		}
		if string(f[0]) != string(id) {
			id = c.intern(f[0], seen)
		}
		r.Entity = id
		b.recs = append(b.recs, r)
	}
	b.ok = true
}

// splitCSVRow splits an unquoted row at its commas into f and returns the
// number of fields, six for any row of more than five.
func splitCSVRow(line []byte, f *[5][]byte) int {
	for n := range f {
		k := bytes.IndexByte(line, ',')
		if k < 0 {
			f[n] = line
			return n + 1
		}
		f[n], line = line[:k], line[k+1:]
	}
	return len(f) + 1
}

// intern returns the one EntityID of the id spelled by b. A worker keeps
// the ids it meets a second time in seen, so an input whose ids recur out
// of order (sorted by time) takes the table's lock once per id and worker
// rather than once per record; an input of one run per id adds nothing
// there.
func (c *csvReader) intern(b []byte, seen map[string]EntityID) EntityID {
	if id, ok := seen[string(b)]; ok {
		return id
	}
	c.mu.Lock()
	id, ok := c.ids[string(b)]
	if !ok {
		id = EntityID(b)
		c.ids[string(id)] = id
	}
	c.mu.Unlock()
	if ok && seen != nil {
		seen[string(id)] = id
	}
	return id
}

// readRows parses r with encoding/csv, continuing the rows and lines the
// fast path read, into parts that double from 64 records up to
// csvChunkRecords: a short input allocates little, a long one a part list
// of a few hundred entries at the paper's dataset size.
func (c *csvReader) readRows(r io.Reader) error {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = -1
	cr.ReuseRecord = true
	chunk := make([]Record, 0, 64)
	for {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			if pe, ok := err.(*csv.ParseError); ok {
				pe.StartLine += c.lines
				pe.Line += c.lines
			}
			return fmt.Errorf("model: reading csv: %w", err)
		}
		c.rows++
		line := c.rows
		if len(row) != 4 && len(row) != 5 {
			return fmt.Errorf("model: line %d: %d fields, want 4 or 5", line, len(row))
		}
		if line == 1 && row[0] == "entity" { // the header row
			continue
		}
		r, err := parseRow(line, row)
		if err != nil {
			return err
		}
		if len(chunk) == cap(chunk) {
			c.parts = append(c.parts, chunk)
			chunk = make([]Record, 0, min(2*cap(chunk), csvChunkRecords))
		}
		r.Entity = c.intern([]byte(row[0]), nil)
		chunk = append(chunk, r)
	}
	c.parts = append(c.parts, chunk)
	return nil
}

// parseRow parses the line'th row of a dataset CSV, four or five fields,
// into a record without its Entity, or returns the row's error. Both the
// fast path and readRows parse a row here, so a row they both read gives
// the same record.
func parseRow[S ~string | ~[]byte](line int, row []S) (Record, error) {
	lat, err := strconv.ParseFloat(string(row[1]), 64)
	if err != nil {
		return Record{}, badField(line, "lat", string(row[1]), err)
	}
	lng, err := strconv.ParseFloat(string(row[2]), 64)
	if err != nil {
		return Record{}, badField(line, "lng", string(row[2]), err)
	}
	unix, err := strconv.ParseInt(string(row[3]), 10, 64)
	if err != nil {
		return Record{}, badField(line, "unix", string(row[3]), err)
	}
	var radius float64
	if len(row) == 5 && len(row[4]) > 0 {
		if radius, err = strconv.ParseFloat(string(row[4]), 64); err != nil {
			return Record{}, badField(line, "radius", string(row[4]), err)
		}
		if radius < 0 {
			return Record{}, fmt.Errorf("model: line %d: negative radius %g", line, radius)
		}
	}
	return Record{LatLng: geo.LatLngFromDegrees(lat, lng), Unix: unix, RadiusKm: radius}, nil
}

// dataset concatenates the parts into one exactly sized record slice and
// validates it.
func (c *csvReader) dataset(name string) (Dataset, error) {
	d := Dataset{Name: name}
	n := 0
	for _, p := range c.parts {
		n += len(p)
	}
	if n > 0 { // no rows leave Records nil
		d.Records = make([]Record, 0, n)
	}
	for k, p := range c.parts {
		d.Records = append(d.Records, p...)
		c.parts[k] = nil // collectable before the next one is copied
	}
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

// csvChunkRecords is the largest part readRows accumulates (192 KiB).
const csvChunkRecords = 4096
