// Package model defines the core data types shared by every SLIM
// subsystem: location records, location datasets, and the temporal window
// arithmetic that aligns both datasets onto one window grid.
package model

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

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

func sortRecords(recs []Record) {
	slices.SortFunc(recs, func(a, b Record) int {
		return cmp.Or(
			cmp.Compare(a.Unix, b.Unix),
			cmp.Compare(a.LatLng.Lat, b.LatLng.Lat),
			cmp.Compare(a.LatLng.Lng, b.LatLng.Lng),
		)
	})
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

// FilterMinRecords returns a copy of the dataset keeping only entities with
// strictly more than minRecords records, mirroring the paper's "ignore an
// entity if it does not have more than 5 records".
func (d *Dataset) FilterMinRecords(minRecords int) Dataset {
	counts := make(map[EntityID]int)
	for _, r := range d.Records {
		counts[r.Entity]++
	}
	kept := 0
	for _, n := range counts {
		if n > minRecords {
			kept += n
		}
	}
	out := Dataset{Name: d.Name}
	if kept == 0 {
		return out
	}
	out.Records = make([]Record, 0, kept)
	for _, r := range d.Records {
		if counts[r.Entity] > minRecords {
			out.Records = append(out.Records, r)
		}
	}
	return out
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
// grouping of a history build in one pass over the dataset. The counting
// pass numbers the entities in first-seen order and notes each record's
// number, so hashing an id is the only map operation a record costs; the
// scatter pass reads the note.
func (d *Dataset) GroupByEntity(minRecords int) Grouped {
	slotOf := make(map[EntityID]int32)
	slots := make([]int32, len(d.Records)) // record i belongs to entity slots[i]
	var ids []EntityID
	var next []int // per entity: its record count, then its next write position
	for i, r := range d.Records {
		slot, ok := slotOf[r.Entity]
		if !ok {
			slot = int32(len(ids))
			slotOf[r.Entity] = slot
			ids, next = append(ids, r.Entity), append(next, 0)
		}
		slots[i] = slot
		next[slot]++
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
	for i, r := range d.Records {
		if at := next[slots[i]]; at >= 0 {
			g.Records[at] = r
			next[slots[i]] = at + 1
		}
	}
	for k := range g.Entities {
		sortRecords(g.Of(k))
	}
	return g
}

// Validate checks every record for a valid position, entity id and
// timestamp (ValidateUnix).
func (d *Dataset) Validate() error {
	for i, r := range d.Records {
		if r.Entity == "" {
			return fmt.Errorf("model: record %d of %q has empty entity id", i, d.Name)
		}
		if !r.LatLng.IsValid() {
			return fmt.Errorf("model: record %d of %q has invalid position %+v", i, d.Name, r.LatLng)
		}
		if err := ValidateUnix(r.Unix); err != nil {
			return fmt.Errorf("model: record %d of %q: %w", i, d.Name, err)
		}
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
