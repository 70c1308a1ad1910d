package history

import (
	"unsafe"

	"slim/internal/model"
)

// Ordinals is one linkage side's entity table: every entity id the side
// has seen, numbered densely in first-seen order. A build assigns ordinals
// in sorted-id order, Store.Add in arrival order. The table is append-only
// — an ordinal is never reused or reassigned — and is shared by the
// side's similarity-level and signature-level stores, so one ordinal names
// the same entity in both. Everything at candidate-pair scale (the
// candidate index, the scorer's hot entry point, the edge store) refers to
// entities by ordinal; ids are resolved at the boundary only.
type Ordinals struct {
	ids   []model.EntityID
	index map[model.EntityID]uint32
}

// newOrdinals returns an empty table with room for n entities, so a build
// that knows its entity count never regrows the map.
func newOrdinals(n int) *Ordinals {
	return &Ordinals{ids: make([]model.EntityID, 0, n), index: make(map[model.EntityID]uint32, n)}
}

// Len returns the number of ordinals assigned so far.
func (t *Ordinals) Len() int { return len(t.ids) }

// ID returns the entity id of an assigned ordinal.
func (t *Ordinals) ID(ord uint32) model.EntityID { return t.ids[ord] }

// Lookup returns the ordinal of an entity id, if it has one.
func (t *Ordinals) Lookup(id model.EntityID) (uint32, bool) {
	ord, ok := t.index[id]
	return ord, ok
}

// intern returns the ordinal of id, assigning the next one on first sight.
func (t *Ordinals) intern(id model.EntityID) uint32 {
	ord, ok := t.index[id]
	if !ok {
		ord = uint32(len(t.ids))
		t.ids = append(t.ids, id)
		t.index[id] = ord
	}
	return ord
}

// ResidentBytes sums what the table retains: its id column and its index.
// The id strings themselves are the records'.
func (t *Ordinals) ResidentBytes() int64 {
	return int64(unsafe.Sizeof(model.EntityID("")))*int64(cap(t.ids)) + mapBytes(t.index)
}

// mapBytes estimates what a map holds: Go's maps keep their entries in
// groups of eight slots under an 8 B control word, at most 7/8 full, in
// tables sized to a power of two. A map grown by inserts rather than sized
// up front holds about the same.
func mapBytes[K comparable, V any](m map[K]V) int64 {
	if len(m) == 0 {
		return 0
	}
	var slot struct {
		k K
		v V
	}
	slots := 8
	for slots*7/8 < len(m) {
		slots *= 2
	}
	return int64(slots/8) * int64(8+8*unsafe.Sizeof(slot))
}
