package history

import (
	"slim/internal/geo"
	"slim/internal/model"
	"slim/internal/par"
)

// View is the compiled scoring view of one entity's history: five
// subslices of its store's columns, which the similarity scorer runs on.
// It has History's layout — window k's bins occupy
// Cells/Counts/IDF[Off[k]:Off[k+1]], sorted by ascending cell id — and
// Windows, Off and Counts are the history's own columns. On top it reads
// the two columns a scoring store compiles for every bin: the store's IDF
// weight, and the cell id interned into the store's dense index space (see
// Store.CompiledViewAt): a bin's cell is a small integer into the store's
// cell table, whose entries carry the geometry the cell distance reads.
//
// A view is valid until the next Store.Add to its store, which may move
// the columns it views, and until the next Compile or CompiledViewAt after
// an Add that moved the store's epoch, which rewrites its IDF weights in
// place. Add is not safe concurrently with readers, so a reader never sees
// either happen; a view must not be held across them: fetch it per use, as
// every scorer entry point does. The store never hands out a stale one —
// Add bumps the history's version or the store's epoch, so the segment
// fails current() and is refreshed before CompiledViewAt fills a view.
type View struct {
	// Windows are the sorted leaf window indices.
	Windows []int64
	// Off bounds each window's bin range: window k owns indices
	// [Off[k], Off[k+1]) of the parallel columns below.
	Off []int32
	// Cells holds store-dense cell indices, ascending cell-id order within
	// each window.
	Cells []int32
	// Counts holds the record weight of each bin.
	Counts []float64
	// IDF holds the store's IDF weight (Eq. 3) of each bin, baked in at
	// compile time.
	IDF []float64
}

// SumWeights returns the summed record weight of a run of bins, accumulated
// in bin order: over one window's Counts, the per-window record count the
// work counters multiply.
func SumWeights(counts []float64) float64 {
	var recs float64
	for _, n := range counts {
		recs += n
	}
	return recs
}

// current reports whether the segment's compiled columns are up to date
// for its history and the store's epoch. Callers hold compMu.
func (s *Store) current(sg *segment) bool {
	return sg.compVersion == sg.version && sg.compEpoch == s.epoch
}

// Compile refreshes the compiled columns of every entity whose history
// changed — or whose dataset-level IDF inputs changed — since its last
// compilation, and returns how many entities were refreshed. Weight-only
// updates (records landing in existing bins) dirty just the touched
// entities; a new bin or a new entity moves the store's IDF epoch and
// dirties everything, because the IDF weights baked into every segment may
// have shifted. An epoch move leaves the interned cells of an unchanged
// history standing, so such a segment only has its IDF weights rewritten,
// in place; the segments of changed histories are re-interned too.
//
// The re-interned entities' cells are interned serially, in ordinal then
// column order, so dense indices are assigned identically for every worker
// count; the IDF weights of every stale segment (the bulk of the work:
// lookups over read-only store state) are then written across the given
// number of workers (below 1 means 1). An epoch-only Compile allocates
// nothing.
//
// Rescore calls Compile before fanning scoring across workers, so the
// parallel phase only ever takes the cheap read-lock path of CompiledView.
func (s *Store) Compile(workers int) int {
	s.mustScore("Compile")
	s.compMu.Lock()
	defer s.compMu.Unlock()
	s.allocCompiledLocked()
	stale := s.stale[:0]
	for ord := range s.segs {
		sg := &s.segs[ord]
		if sg.nWin == 0 || s.current(sg) {
			continue
		}
		stale = append(stale, uint32(ord))
		s.internLocked(sg)
	}
	s.stale = stale
	idfs := s.idfTableLocked()
	if workers <= 1 { // inline: the fan-out's closure is an allocation
		for _, ord := range stale {
			s.fill(&s.segs[ord], idfs)
		}
		return len(stale)
	}
	par.Chunks(workers, len(stale), func(_, lo, hi int) {
		for _, ord := range stale[lo:hi] {
			s.fill(&s.segs[ord], idfs)
		}
	})
	return len(stale)
}

// allocCompiledLocked gives a store its two compiled columns on its first
// compile; from then on they share the per-bin columns' length and
// capacity and are rewritten with them. Callers hold compMu for writing.
func (s *Store) allocCompiledLocked() {
	if s.dense == nil {
		n, c := len(s.cells), cap(s.cells)
		s.dense, s.idf = make([]int32, n, c), make([]float64, n, c)
	}
}

// CompiledViewAt fills v with the up-to-date compiled view of the entity
// with the given ordinal and returns the store's cell table: entry i is
// the id, centre and circumradius of the cell with dense index i. ok is
// false, and v untouched, if the store holds no history for the ordinal.
// A stale entity is compiled on the spot, so callers need no prior
// Compile; the table is append-only, so indices held by any view remain
// valid in every later table. Safe for concurrent use by scorers; like all
// reads, not safe concurrently with Add.
func (s *Store) CompiledViewAt(ord uint32, v *View) (cells []geo.CellGeom, ok bool) {
	s.mustScore("CompiledViewAt")
	sg := s.segAt(ord)
	if sg == nil {
		return nil, false
	}
	s.compMu.RLock()
	if s.current(sg) {
		cells = s.viewLocked(sg, v)
		s.compMu.RUnlock()
		return cells, true
	}
	s.compMu.RUnlock()

	s.compMu.Lock()
	if !s.current(sg) {
		s.allocCompiledLocked()
		s.internLocked(sg)
		s.fill(sg, s.idfTableLocked())
	}
	cells = s.viewLocked(sg, v)
	s.compMu.Unlock()
	return cells, true
}

// CompiledView is CompiledViewAt by entity id (ok is false if e is
// unknown).
func (s *Store) CompiledView(e model.EntityID, v *View) (cells []geo.CellGeom, ok bool) {
	ord, known := s.ords.Lookup(e)
	if !known {
		return nil, false
	}
	return s.CompiledViewAt(ord, v)
}

// viewLocked fills v with the segment's columns and returns the cell
// table. Callers hold compMu.
func (s *Store) viewLocked(sg *segment, v *View) []geo.CellGeom {
	w, nw, b, nb := sg.win, sg.nWin, sg.bin, sg.nBin
	v.Windows = s.windows[w : w+nw : w+nw]
	v.Off = s.off[w : w+nw+1 : w+nw+1]
	v.Cells = s.dense[b : b+nb : b+nb]
	v.Counts = s.counts[b : b+nb : b+nb]
	v.IDF = s.idf[b : b+nb : b+nb]
	return s.geoms
}

// internLocked readies a stale segment for fill, which writes its IDF
// weights, and stamps it current. If the history is unchanged since its
// cells were interned — only the store's epoch moved — they still stand.
// Otherwise its cells are interned into the dense column: each cell id is
// assigned the next index — and its geometry derived, once for the life of
// the store — on first sight. It is the only part of a compile that writes
// store state beyond the segment's own range; callers hold compMu for
// writing.
func (s *Store) internLocked(sg *segment) {
	if sg.compVersion != sg.version {
		for j, id := range s.cells[sg.bin : sg.bin+sg.nBin] {
			i, ok := s.cellIndex[id]
			if !ok {
				i = int32(len(s.geoms))
				s.cellIndex[id] = i
				s.geoms = append(s.geoms, geo.GeomOf(id))
			}
			s.dense[int(sg.bin)+j] = i
		}
		sg.compVersion = sg.version
	}
	sg.compEpoch = s.epoch
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

// fill writes the IDF weight of every bin of a segment readied by
// internLocked, reading idf(n, df) from idfs (see idfTableLocked). It
// writes the segment's own range of the IDF column and only reads the rest
// of the store, so distinct segments fill concurrently.
func (s *Store) fill(sg *segment, idfs []float64) {
	cells, weights := s.cells[sg.bin:sg.bin+sg.nBin], s.idf[sg.bin:sg.bin+sg.nBin]
	off := s.off[sg.win : sg.win+sg.nWin+1]
	i := 0 // the windows ascend, so each search starts at the last hit
	for k, win := range s.windows[sg.win : sg.win+sg.nWin] {
		var fw freqWindow
		fw, i = s.freq.window(i, win)
		for j := off[k]; j < off[k+1]; j++ {
			weights[j] = idfs[fw.count(cells[j])]
		}
	}
}
