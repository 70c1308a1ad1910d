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

func compareRecords(a, b Record) int {
	return cmp.Or(
		cmp.Compare(a.Unix, b.Unix),
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

// Grouped is a dataset regrouped by entity: entity k (sorted-id order)
// owns Records[Off[k]:Off[k+1]], sorted the way ByEntity sorts them.
// len(Off) is len(Entities)+1.
type Grouped struct {
	Name     string
	Entities []EntityID
	Off      []int
	Records  []Record
}

// Of returns entity k's records.
func (g *Grouped) Of(k int) []Record { return g.Records[g.Off[k]:g.Off[k+1]] }

// Dataset views the grouped records as a dataset (sharing them).
func (g *Grouped) Dataset() Dataset { return Dataset{Name: g.Name, Records: g.Records} }

// GroupByEntity groups the records of every entity holding strictly more
// than minRecords of them (a negative minRecords keeps every entity) into
// one exactly sized record slice: the MinRecords filter and the per-entity
// grouping of a history build in one pass over the dataset. It works per
// run, a maximal stretch of consecutive records of one entity (a CSV
// written by WriteCSV from grouped records is one run per entity): the
// counting pass numbers the entities in first-seen order and probes the id
// map once per run, the scatter pass copies each run whole, and an
// entity's records are sorted only when they are not already strictly
// increasing, where a sort could not move one.
func (d *Dataset) GroupByEntity(minRecords int) Grouped {
	slotOf := make(map[EntityID]int32)
	var runSlots []int32 // run k belongs to entity runSlots[k]
	var ids []EntityID
	var next []int // per entity: its record count, then its next write position
	for lo, hi := 0, 0; lo < len(d.Records); lo = hi {
		hi = runEnd(d.Records, lo)
		e := d.Records[lo].Entity
		slot, ok := slotOf[e]
		if !ok {
			slot = int32(len(ids))
			slotOf[e] = slot
			ids, next = append(ids, e), append(next, 0)
		}
		runSlots = append(runSlots, slot)
		next[slot] += hi - lo
	}
	kept := make([]int32, 0, len(ids))
	for slot, n := range next {
		if n > minRecords {
			kept = append(kept, int32(slot))
		} else {
			next[slot] = -1
		}
	}
	slices.SortFunc(kept, func(a, b int32) int { return cmp.Compare(ids[a], ids[b]) })
	g := Grouped{Name: d.Name, Entities: make([]EntityID, len(kept)), Off: make([]int, len(kept)+1)}
	for k, slot := range kept {
		g.Entities[k] = ids[slot]
		g.Off[k+1] = g.Off[k] + next[slot]
		next[slot] = g.Off[k]
	}
	g.Records = make([]Record, g.Off[len(kept)])
	for lo, hi, k := 0, 0, 0; lo < len(d.Records); lo, k = hi, k+1 {
		hi = runEnd(d.Records, lo)
		if at := next[runSlots[k]]; at >= 0 {
			next[runSlots[k]] = at + copy(g.Records[at:], d.Records[lo:hi])
		}
	}
	for k := range g.Entities {
		if recs := g.Of(k); !strictlyIncreasing(recs) {
			sortRecords(recs)
		}
	}
	return g
}

// runEnd returns the end of the run of records[lo]'s entity starting at lo.
func runEnd(records []Record, lo int) int {
	hi := lo + 1
	for hi < len(records) && records[hi].Entity == records[lo].Entity {
		hi++
	}
	return hi
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

// Validate checks every record for a valid entity id (ValidateEntityID),
// position, radius (ValidateRadius) and timestamp (ValidateUnix). An id is
// checked once per run of its records. A dataset it accepts survives the
// canonical CSV: ReadCSV(WriteCSV(d)) returns its records bit for bit.
func (d *Dataset) Validate() error {
	for i, r := range d.Records {
		if i == 0 || r.Entity != d.Records[i-1].Entity {
			if err := ValidateEntityID(r.Entity); err != nil {
				return fmt.Errorf("model: record %d of %q: %w", i, d.Name, err)
			}
		}
		if !r.LatLng.IsValid() {
			return fmt.Errorf("model: record %d of %q has invalid position %+v", i, d.Name, r.LatLng)
		}
		if err := ValidateRadius(r.RadiusKm); err != nil {
			return fmt.Errorf("model: record %d of %q: %w", i, d.Name, err)
		}
		if err := ValidateUnix(r.Unix); err != nil {
			return fmt.Errorf("model: record %d of %q: %w", i, d.Name, err)
		}
	}
	return nil
}

// ValidateEntityID rejects an empty id and one holding a carriage return
// or a line feed: encoding/csv reads a quoted "\r\n" back as "\n", so such
// an id would not survive the canonical CSV.
func ValidateEntityID(id EntityID) error {
	if id == "" {
		return errors.New("empty entity id")
	}
	if strings.ContainsAny(string(id), "\r\n") {
		return fmt.Errorf("entity id %q holds a line break", id)
	}
	return nil
}

// ValidateRadius rejects a region radius that is not +0 or a finite
// positive number. A point record's radius is +0: the canonical CSV omits
// the radius column when no record is a region, which reads back as +0,
// so a -0 would not survive it.
func ValidateRadius(km float64) error {
	if !(km >= 0) || math.IsInf(km, 1) || math.Signbit(km) {
		return fmt.Errorf("radius_km %g must be +0 or a finite positive number", km)
	}
	return nil
}

// MaxUnix bounds the magnitude of a record's timestamp, about 7.3·10¹⁰
// years either side of Unix 0. It is checked where records enter from
// outside the program — Dataset.Validate and both ingest routes, which
// answer 400 — and keeps what a linkage derives from a time inside int64:
// the start k·|w| of its window for any width up to 2⁶¹ s, which is what
// /v1/explain's window index times the width means. Windowing.Window needs
// no bound; it is a floor division defined on every int64. Nothing in a
// linkage is sized by the data's time range, so a far-off time inside the
// bound costs no more than any other.
const MaxUnix = 1 << 61

// ValidateUnix rejects a timestamp outside [−MaxUnix, MaxUnix].
func ValidateUnix(unix int64) error {
	if unix < -MaxUnix || unix > MaxUnix {
		return fmt.Errorf("unix time %d outside [-%d, %d]", unix, int64(MaxUnix), int64(MaxUnix))
	}
	return nil
}

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
