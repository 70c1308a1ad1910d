package history

import (
	"slim/internal/geo"
	"slim/internal/model"
	"slim/internal/par"
)

// Compiled is the flat, read-optimized view of one entity's history that
// the similarity scorer runs on. It shares History's column layout —
// window k's bins occupy Cells/Counts/IDF[Off[k]:Off[k+1]], sorted by
// ascending cell id — and its columns: Windows, Off and Counts are the
// history's own slices, not copies. On top it adds what scoring derives:
// the store's IDF weight of every bin, per-window weight sums, and cell
// ids interned into the owning Store's dense index space (see
// Store.CompiledView): a bin's cell is a small integer into the store's
// cell table, whose entries carry the geometry the cell distance reads.
//
// A view is valid until the next Store.Add to any entity of the store: an
// Add to its own entity shifts the shared columns in place, and one that
// moves the store's epoch leaves its IDF weights stale, to be rewritten in
// place by the next Compile or CompiledViewAt. Add is not safe concurrently
// with readers, so a reader never sees either happen. A view must not be
// held across an Add, nor across the Compile that follows it: fetch it per
// use, as every scorer entry point does. The store never hands out a stale
// one — Add bumps the history's version or the store's epoch, so the view
// fails current() and is refreshed before CompiledViewAt returns it.
type Compiled struct {
	// Windows are the sorted leaf window indices (the history's slice).
	Windows []int64
	// Off bounds each window's bin range: window k owns indices
	// [Off[k], Off[k+1]) of the parallel arrays below (the history's
	// slice).
	Off []int32
	// Cells holds store-dense cell indices, ascending cell-id order within
	// each window.
	Cells []int32
	// Counts holds the record weight of each bin (the history's slice).
	Counts []float64
	// IDF holds the owning store's IDF weight (Eq. 3) of each bin, baked in
	// at compile time.
	IDF []float64
	// WinRecs[k] is the summed record weight of window k, accumulated in
	// bin order (so it is bit-identical to the map scorer's per-window sum).
	WinRecs []float64

	storeEpoch  uint64
	histVersion uint64
}

// current reports whether the view is still valid for the given store
// state and history.
func (c *Compiled) current(epoch uint64, h *History) bool {
	return c != nil && c.storeEpoch == epoch && c.histVersion == h.version
}

// Compile refreshes the compiled read path of every entity whose history
// changed — or whose dataset-level IDF inputs changed — since its last
// compilation, and returns how many entities were refreshed. Weight-only
// updates (records landing in existing bins) dirty just the touched
// entities; a new bin or a new entity moves the store's IDF epoch and
// dirties everything, because the IDF weights baked into every view may
// have shifted. An epoch move leaves the rest of a view standing while
// its history is unchanged, so such a view only has its IDF weights
// rewritten, in place; the views of changed histories are rebuilt.
//
// The rebuilt entities' cells are interned serially, in ordinal then
// column order, so dense indices are assigned identically for every
// worker count; the IDF weights of every stale view (the bulk of the
// work: lookups over read-only store state) are then written across the
// given number of workers (below 1 means 1).
//
// Rescore calls Compile before fanning scoring across workers, so the
// parallel phase only ever takes the cheap read-lock path of CompiledView.
func (s *Store) Compile(workers int) int {
	s.mustScore("Compile")
	s.compMu.Lock()
	defer s.compMu.Unlock()
	s.growCompiledLocked()
	stale := s.stale[:0]
	for ord, h := range s.histories {
		if h == nil || s.compiled[ord].current(s.epoch, h) {
			continue
		}
		stale = append(stale, uint32(ord))
		s.compiled[ord] = s.internLocked(s.compiled[ord], h)
	}
	s.stale = stale
	idfs := s.idfTableLocked()
	par.Chunks(workers, len(stale), func(_, lo, hi int) {
		for _, ord := range stale[lo:hi] {
			s.fill(s.compiled[ord], s.histories[ord], idfs)
		}
	})
	return len(stale)
}

// growCompiledLocked extends the view table to cover every ordinal the
// store holds. Callers hold compMu for writing.
func (s *Store) growCompiledLocked() {
	if n := len(s.histories) - len(s.compiled); n > 0 {
		s.compiled = append(s.compiled, make([]*Compiled, n)...)
	}
}

// CompiledViewAt returns the up-to-date compiled history of the entity
// with the given ordinal (nil if the store holds no history for it)
// together with the store's cell table: entry i is the id, centre and
// circumradius of the cell with dense index i. A stale or missing view is
// compiled on the spot, so callers need no prior Compile; the table is
// append-only, so indices held by any returned view remain valid in every
// later table. Safe for concurrent use by scorers; like all
// reads, not safe concurrently with Add.
func (s *Store) CompiledViewAt(ord uint32) (*Compiled, []geo.CellGeom) {
	s.mustScore("CompiledViewAt")
	h := s.HistoryAt(ord)
	if h == nil {
		return nil, nil
	}
	s.compMu.RLock()
	if int(ord) < len(s.compiled) {
		if c := s.compiled[ord]; c.current(s.epoch, h) {
			cells := s.cells
			s.compMu.RUnlock()
			return c, cells
		}
	}
	s.compMu.RUnlock()

	s.compMu.Lock()
	s.growCompiledLocked()
	c := s.compiled[ord]
	if !c.current(s.epoch, h) {
		c = s.internLocked(c, h)
		s.fill(c, h, s.idfTableLocked())
		s.compiled[ord] = c
	}
	cells := s.cells
	s.compMu.Unlock()
	return c, cells
}

// CompiledView is CompiledViewAt by entity id (nil if e is unknown).
func (s *Store) CompiledView(e model.EntityID) (*Compiled, []geo.CellGeom) {
	ord, ok := s.ords.Lookup(e)
	if !ok {
		return nil, nil
	}
	return s.CompiledViewAt(ord)
}

// internLocked readies the stale view old of h (nil if h has none) for
// fill, which writes its IDF weights. If h is unchanged since old was
// built — only the store's epoch moved — old already holds the rest and is
// returned as it is. Otherwise a fresh view of h is started, on old's
// slices where their lengths still fit: h's cells as dense indices, each
// cell id assigned the next index — and its geometry derived, once for the
// life of the store — on first sight, and h's per-window weight sums,
// accumulated in bin order. It is the only part of a view build that
// writes store state; callers hold compMu for writing.
func (s *Store) internLocked(old *Compiled, h *History) *Compiled {
	if old != nil && old.histVersion == h.version {
		old.storeEpoch = s.epoch
		return old
	}
	c := &Compiled{Windows: h.windows, Off: h.off, Counts: h.counts, storeEpoch: s.epoch, histVersion: h.version}
	if old != nil {
		c.Cells, c.IDF, c.WinRecs = old.Cells, old.IDF, old.WinRecs
	}
	c.Cells = resize(c.Cells, len(h.cells))
	c.IDF = resize(c.IDF, len(h.cells))
	c.WinRecs = resize(c.WinRecs, len(h.windows))
	for j, id := range h.cells {
		i, ok := s.cellIndex[id]
		if !ok {
			i = int32(len(s.cells))
			s.cellIndex[id] = i
			s.cells = append(s.cells, geo.GeomOf(id))
		}
		c.Cells[j] = i
	}
	for k := range h.windows {
		var recs float64
		for j := h.off[k]; j < h.off[k+1]; j++ {
			recs += h.counts[j]
		}
		c.WinRecs[k] = recs
	}
	return c
}

// resize returns s at length n, reusing its array when it is large enough.
func resize[E any](s []E, n int) []E {
	if cap(s) < n {
		return make([]E, n)
	}
	return s[:n]
}

// idfTableLocked returns idf(n, df) for every df from 0 to the store's
// largest, n its entity count, extending or rebuilding the table the
// last call left only when either moved. Each entry is idf's own result,
// so a weight read from the table is bit-identical to one computed per
// bin. Callers hold compMu for writing.
func (s *Store) idfTableLocked() []float64 {
	if n := len(s.entities); n != s.idfsN {
		s.idfs, s.idfsN = s.idfs[:0], n
	}
	for df := int32(len(s.idfs)); df <= s.freq.maxDF; df++ {
		s.idfs = append(s.idfs, idf(s.idfsN, df))
	}
	return s.idfs
}

// fill writes the IDF weight of every bin of c, a view of h readied by
// internLocked, reading idf(n, df) from idfs (see idfTableLocked). It only
// reads the store and the history, so views of distinct entities fill
// concurrently.
func (s *Store) fill(c *Compiled, h *History, idfs []float64) {
	i := 0 // h's windows ascend, so each search starts at the last hit
	for k, win := range h.windows {
		var fw freqWindow
		fw, i = s.freq.window(i, win)
		for j := h.off[k]; j < h.off[k+1]; j++ {
			c.IDF[j] = idfs[fw.count(h.cells[j])]
		}
	}
}
