package history

import (
	"hash/maphash"
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
//
// The table is the side's one list of ids. slots is an open-addressing
// hash index over it: a slot holds an ordinal plus one (0 is empty), placed
// by the id's hash and linear probing, and the index is at most three
// quarters full. A slot is 4 B where a map entry keyed by the id is ≈ 40.
type Ordinals struct {
	ids   []model.EntityID
	slots []uint32
}

// idSeed seeds the index's hash. Where an id lands decides no output.
var idSeed = maphash.MakeSeed()

// newOrdinals returns an empty table with room for n entities, so a build
// that knows its entity count never regrows it.
func newOrdinals(n int) *Ordinals {
	slots := 8
	for slots*3 < n*4 {
		slots *= 2
	}
	return &Ordinals{ids: make([]model.EntityID, 0, n), slots: make([]uint32, slots)}
}

// Len returns the number of ordinals assigned so far.
func (t *Ordinals) Len() int { return len(t.ids) }

// ID returns the entity id of an assigned ordinal.
func (t *Ordinals) ID(ord uint32) model.EntityID { return t.ids[ord] }

// Lookup returns the ordinal of an entity id, if it has one.
func (t *Ordinals) Lookup(id model.EntityID) (uint32, bool) {
	if s := t.slots[t.slot(id)]; s != 0 {
		return s - 1, true
	}
	return 0, false
}

// intern returns the ordinal of id, assigning the next one on first sight.
func (t *Ordinals) intern(id model.EntityID) uint32 {
	i := t.slot(id)
	if s := t.slots[i]; s != 0 {
		return s - 1
	}
	ord := uint32(len(t.ids))
	t.ids = append(t.ids, id)
	if len(t.ids)*4 <= len(t.slots)*3 {
		t.slots[i] = ord + 1
		return ord
	}
	t.slots = make([]uint32, 2*len(t.slots))
	for k, id := range t.ids {
		t.slots[t.slot(id)] = uint32(k) + 1
	}
	return ord
}

// slot returns the index slot that holds id, or the empty slot it would
// take.
func (t *Ordinals) slot(id model.EntityID) int {
	mask := uint64(len(t.slots) - 1)
	i := maphash.String(idSeed, string(id)) & mask
	for s := t.slots[i]; s != 0 && t.ids[s-1] != id; s = t.slots[i] {
		i = (i + 1) & mask
	}
	return int(i)
}

// ResidentBytes sums what the table retains: its id column and its index.
// The id strings themselves are the records'.
func (t *Ordinals) ResidentBytes() int64 {
	return int64(unsafe.Sizeof(model.EntityID("")))*int64(cap(t.ids)) + 4*int64(len(t.slots))
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
