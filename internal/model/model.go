// Package model defines the core data types shared by every SLIM
// subsystem: location records, location datasets, and the temporal window
// arithmetic that aligns both datasets onto one window grid.
package model

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"slim/internal/geo"
)

// EntityID identifies an entity within one dataset. Ids are anonymized and
// therefore carry no cross-dataset meaning; linkage is the whole point.
type EntityID string

// Record is one usage record of a location-based service: the triple
// {u, l, t} of Sec. 2.1.
type Record struct {
	Entity EntityID
	LatLng geo.LatLng
	// Unix is the record timestamp in seconds since the epoch.
	Unix int64
	// RadiusKm, when positive, marks the record location as a region (a
	// cap of this radius around LatLng) rather than a point. Region
	// records are copied into every covered history cell with fractional
	// weights, per the extension described in Sec. 2.1 of the paper.
	RadiusKm float64
}

// Dataset is a collection of usage records from one location-based service.
type Dataset struct {
	Name    string
	Records []Record
}

// Len returns the number of records.
func (d *Dataset) Len() int { return len(d.Records) }

// ByEntity groups records by entity id. Each entity's records are sorted by
// time (ties broken by latitude/longitude for determinism).
func (d *Dataset) ByEntity() map[EntityID][]Record {
	m := make(map[EntityID][]Record)
	for _, r := range d.Records {
		m[r.Entity] = append(m[r.Entity], r)
	}
	for _, recs := range m {
		sortRecords(recs)
	}
	return m
}

func sortRecords(recs []Record) { slices.SortFunc(recs, compareRecords) }

// compareRecords is sortRecords' order: time, then latitude, then
// longitude. The time decides nearly every comparison, so it is tested
// first on its own: cmp.Or evaluates all of its arguments.
func compareRecords(a, b Record) int {
	if a.Unix != b.Unix {
		return cmp.Compare(a.Unix, b.Unix)
	}
	return cmp.Or(
		cmp.Compare(a.LatLng.Lat, b.LatLng.Lat),
		cmp.Compare(a.LatLng.Lng, b.LatLng.Lng),
	)
}

// Entities returns the sorted list of distinct entity ids.
func (d *Dataset) Entities() []EntityID {
	seen := make(map[EntityID]struct{})
	for _, r := range d.Records {
		seen[r.Entity] = struct{}{}
	}
	out := make([]EntityID, 0, len(seen))
	for e := range seen {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// TimeRange returns the inclusive [min, max] record timestamps; ok is false
// for an empty dataset.
func (d *Dataset) TimeRange() (minUnix, maxUnix int64, ok bool) {
	if len(d.Records) == 0 {
		return 0, 0, false
	}
	minUnix, maxUnix = d.Records[0].Unix, d.Records[0].Unix
	for _, r := range d.Records[1:] {
		if r.Unix < minUnix {
			minUnix = r.Unix
		}
		if r.Unix > maxUnix {
			maxUnix = r.Unix
		}
	}
	return minUnix, maxUnix, true
}

// Grouped is a dataset grouped by entity: entity k (sorted-id order) owns
// the span Records[Start[k] : Start[k]+Len[k]], sorted the way ByEntity
// sorts them. Records may be the caller's own slice (see GroupByEntity),
// which also holds the records of entities the filter dropped: read an
// entity's records through Of, and never write through them.
type Grouped struct {
	Name     string
	Entities []EntityID
	Start    []int
	Len      []int
	Records  []Record
}

// Of returns entity k's records, capped so an append cannot write past
// them.
func (g *Grouped) Of(k int) []Record {
	end := g.Start[k] + g.Len[k]
	return g.Records[g.Start[k]:end:end]
}

// GroupByEntity groups the records of every entity holding strictly more
// than minRecords of them (a negative minRecords keeps every entity): the
// MinRecords filter and the per-entity grouping of a history build in one
// pass over the dataset, the counting pass (takeCensus). When every entity
// is one strictly increasing run (a sampled workload, a CSV written by
// WriteCSV from grouped records, a dataset GroupInPlace grouped), the
// spans index d.Records itself and nothing is copied; an entity the
// filter drops just gets no span. Otherwise the scatter pass copies each
// kept run whole into one exactly sized slice, and only the entities that
// had more than one run or a run out of order are sorted. It never writes
// d.Records: a caller that owns its records groups them with GroupInPlace
// first.
func (d *Dataset) GroupByEntity(minRecords int) Grouped {
	c := takeCensus(d.Records, nil)
	next := c.count // per entity: its record count, then its next write position
	kept := make([]int32, 0, len(c.ids))
	for slot, n := range next {
		if n > minRecords {
			kept = append(kept, int32(slot))
		} else {
			next[slot] = -1
		}
	}
	slices.SortFunc(kept, func(a, b int32) int { return cmp.Compare(c.ids[a], c.ids[b]) })
	g := Grouped{Name: d.Name, Entities: make([]EntityID, len(kept)), Start: make([]int, len(kept)), Len: make([]int, len(kept))}
	total := 0
	for k, slot := range kept {
		g.Entities[k], g.Len[k] = c.ids[slot], next[slot]
		if c.grouped {
			g.Start[k] = c.first[slot]
		} else {
			g.Start[k], next[slot] = total, total
			total += g.Len[k]
		}
	}
	if c.grouped {
		g.Records = d.Records
		return g
	}
	g.Records = make([]Record, total)
	for lo, hi, k := 0, 0, 0; lo < len(d.Records); lo, k = hi, k+1 {
		hi = runEnd(d.Records, lo)
		if at := next[c.runSlots[k]]; at >= 0 {
			next[c.runSlots[k]] = at + copy(g.Records[at:], d.Records[lo:hi])
		}
	}
	for k, slot := range kept {
		if c.unsorted[slot] {
			sortRecords(g.Of(k))
		}
	}
	return g
}

// GroupInPlace reorders d.Records into the layout GroupByEntity indexes
// without a copy: each entity's records one run, sorted the way ByEntity
// sorts them, the entities in first-seen order. Records already in that
// layout are not touched. Otherwise the runs' entity slots from the
// counting pass become each record's destination in place, the records
// move there by a cycle permutation (each swap puts one record in its
// place for good), and only the entities that had more than one run or a
// run out of order are sorted: an entity's records end up exactly as
// GroupByEntity's copy path lays them out. Beside the counting pass's
// per-entity state it allocates one 4-byte column a record, so d must
// hold fewer than 2³¹ records. Only the records' owner may call it
// (slimd's seeds are its own); GroupByEntity never writes a caller's
// records.
func (d *Dataset) GroupInPlace() {
	recs := d.Records
	c := takeCensus(recs, make([]int32, 0, len(recs)))
	if c.grouped {
		return
	}
	at := make([]int, len(c.count)) // per entity: where its span ends, then where it starts
	for slot, end := 0, 0; slot < len(at); slot++ {
		end += c.count[slot]
		at[slot] = end
	}
	// Walked from the last run, run k's records get their destinations at
	// indexes at or past its start, itself at or past k, so each slot is
	// read before a destination overwrites it.
	dest := c.runSlots[:len(recs)]
	for hi, k := len(recs), len(c.runSlots)-1; k >= 0; k-- {
		lo, slot := runStart(recs, hi), dest[k]
		for i := hi - 1; i >= lo; i-- {
			at[slot]--
			dest[i] = int32(at[slot])
		}
		hi = lo
	}
	for i := range recs {
		for j := int(dest[i]); j != i; j = int(dest[i]) {
			recs[i], recs[j] = recs[j], recs[i]
			dest[i], dest[j] = dest[j], int32(j)
		}
	}
	for slot, lo := range at {
		if c.unsorted[slot] {
			sortRecords(recs[lo : lo+c.count[slot]])
		}
	}
}

// census is what the counting pass finds, per run: a maximal stretch of
// consecutive records of one entity.
type census struct {
	ids      []EntityID // per entity, numbered in first-seen order
	first    []int      // per entity: where its first run starts
	count    []int      // per entity: its record count
	unsorted []bool     // per entity: more than one run, or a run out of order
	runSlots []int32    // run k belongs to entity runSlots[k]
	grouped  bool       // every entity is one strictly increasing run
}

// takeCensus is the counting pass both groupings share: it numbers the
// entities in first-seen order, probes the id map once per run and
// checks each run for strict increase in sortRecords' order. The run
// slots are appended to runSlots.
func takeCensus(records []Record, runSlots []int32) census {
	c := census{runSlots: runSlots, grouped: true}
	slotOf := make(map[EntityID]int32)
	for lo, hi := 0, 0; lo < len(records); lo = hi {
		hi = runEnd(records, lo)
		e := records[lo].Entity
		slot, ok := slotOf[e]
		if !ok {
			slot = int32(len(c.ids))
			slotOf[e] = slot
			c.ids, c.first, c.count, c.unsorted = append(c.ids, e), append(c.first, lo), append(c.count, 0), append(c.unsorted, false)
		}
		if ok || !strictlyIncreasing(records[lo:hi]) {
			c.unsorted[slot] = true
			c.grouped = false
		}
		c.runSlots = append(c.runSlots, slot)
		c.count[slot] += hi - lo
	}
	return c
}

// runEnd returns the end of the run of records[lo]'s entity starting at lo.
func runEnd(records []Record, lo int) int {
	hi := lo + 1
	for hi < len(records) && records[hi].Entity == records[lo].Entity {
		hi++
	}
	return hi
}

// runStart returns the start of the run of records[hi-1]'s entity ending
// at hi.
func runStart(records []Record, hi int) int {
	lo := hi - 1
	for lo > 0 && records[lo-1].Entity == records[hi-1].Entity {
		lo--
	}
	return lo
}

// strictlyIncreasing reports whether recs are in sortRecords' order with
// no two equal under it.
func strictlyIncreasing(recs []Record) bool {
	for k := 1; k < len(recs); k++ {
		if compareRecords(recs[k-1], recs[k]) >= 0 {
			return false
		}
	}
	return true
}

// Validate runs ValidateRecord over every record, checking an id once per
// run of its records. A dataset it accepts survives the canonical CSV:
// ReadCSV(WriteCSV(d)) returns its records bit for bit.
func (d *Dataset) Validate() error {
	for i := range d.Records {
		newRun := i == 0 || d.Records[i].Entity != d.Records[i-1].Entity
		if err := validateRecord(&d.Records[i], newRun); err != nil {
			return fmt.Errorf("model: record %d of %q: %w", i, d.Name, err)
		}
	}
	return nil
}

// ValidateRecord is the check a record passes to enter a linkage.
// Dataset.Validate runs it over a seed dataset, and both ingest routes run
// it on every untrusted record they decode (a refused one answers 400), so
// no id, position, radius or timestamp that could poison a store gets in.
func ValidateRecord(r Record) error { return validateRecord(&r, true) }

// validateRecord checks r's id (when id is set), position, radius and
// timestamp.
func validateRecord(r *Record, id bool) error {
	if id && r.Entity == "" {
		return errors.New("empty entity id")
	}
	// encoding/csv reads a quoted "\r\n" back as "\n", so an id holding a
	// line break would not survive the canonical CSV.
	if id && strings.ContainsAny(string(r.Entity), "\r\n") {
		return fmt.Errorf("entity id %q holds a line break", r.Entity)
	}
	if !r.LatLng.IsValid() {
		return fmt.Errorf("invalid position %+v", r.LatLng)
	}
	// A point record's radius is +0: the canonical CSV omits the radius
	// column when no record is a region, which reads back as +0, so a -0
	// would not survive it.
	if km := r.RadiusKm; !(km >= 0) || math.IsInf(km, 1) || math.Signbit(km) {
		return fmt.Errorf("radius_km %g must be +0 or a finite positive number", km)
	}
	if r.Unix < -MaxUnix || r.Unix > MaxUnix {
		return fmt.Errorf("unix time %d outside [-%d, %d]", r.Unix, int64(MaxUnix), int64(MaxUnix))
	}
	return nil
}

// MaxUnix bounds the magnitude of a record's timestamp, about 7.3·10¹⁰
// years either side of Unix 0. It is checked where records enter from
// outside the program — ValidateRecord, which Dataset.Validate and both
// ingest routes run (the routes answer 400) — and keeps what a linkage
// derives from a time inside int64: the start k·|w| of its window for any
// width up to 2⁶¹ s, which is what /v1/explain's window index times the
// width means. Windowing.Window needs no bound; it is a floor division
// defined on every int64. Nothing in a linkage is sized by the data's time
// range, so a far-off time inside the bound costs no more than any other.
const MaxUnix = 1 << 61

// Windowing is the grid of fixed-width temporal windows both datasets of
// a linkage share, so that "same temporal window" means the same thing
// across them (Sec. 2.2). It is absolute: window k covers
// [k·|w|, (k+1)·|w|) of Unix time for every linkage, whatever records it
// was seeded with or fed, so a window index is a function of the timestamp
// and the width alone (DESIGN.md §5.9).
type Windowing struct {
	// WidthSeconds is the temporal window width |w|; it must be positive.
	WidthSeconds int64
}

// Window returns the index of the window containing the given unix time,
// ⌊unix / |w|⌋, for every int64.
func (w Windowing) Window(unix int64) int64 {
	q := unix / w.WidthSeconds
	if unix%w.WidthSeconds < 0 {
		q-- // floor division for times before Unix 0
	}
	return q
}

// WidthMinutes returns the window width in (possibly fractional) minutes.
func (w Windowing) WidthMinutes() float64 { return float64(w.WidthSeconds) / 60 }
