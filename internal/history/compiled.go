package history

import (
	"slim/internal/geo"
	"slim/internal/model"
	"slim/internal/par"
)

// View is the compiled scoring view of one entity's history: five
// subslices of its store's columns plus the store's two tables, which the
// similarity scorer runs on. It has History's layout — window k's bins
// occupy Cells/Counts/DF[Off[k]:Off[k+1]], sorted by ascending cell id —
// and Windows, Off, Cells and Counts are the history's own columns: a
// bin's cell is a small integer into the store's cell table (see
// Store.CompiledViewAt), whose entries carry the geometry the cell
// distance reads. On top it reads the one column a scoring store compiles
// for every bin, its document frequency, and the store's table of IDF
// weights by document frequency.
//
// A view is valid until the next Store.Add to its store, which may move
// the columns it views, and until the next Compile or CompiledViewAt after
// an Add that moved the store's epoch, which rewrites its df column in
// place. Add is not safe concurrently with readers, so a reader never sees
// either happen; a view must not be held across them: fetch it per use, as
// every scorer entry point does. The store never hands out a stale one —
// an Add that moves any document frequency or the entity count moves the
// store's epoch, so the segment fails current() and is refilled before
// CompiledViewAt fills a view.
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
	// DF holds how many of the store's entities hold each bin.
	DF []int32
	// IDFByDF is the store's IDF weight (Eq. 3) of a bin by its document
	// frequency: bin j weighs IDFByDF[DF[j]].
	IDFByDF []float64
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

// current reports whether the segment's df column is up to date for the
// store's epoch. Callers hold compMu.
func (s *Store) current(sg *segment) bool {
	return sg.filled == s.epoch+1
}

// Compile refreshes the df column of every entity whose bins' document
// frequencies may have changed since its last compilation, and returns how
// many entities were refreshed. A record that lands in an existing bin
// moves neither the bin set nor any df, so it dirties nothing: the view
// reads the record weights from the history itself. A new bin or a new
// entity moves the store's IDF epoch and dirties everything.
//
// The df column of every stale segment (lookups over read-only store
// state) is written across the given number of workers (below 1 means 1).
// An epoch-only Compile allocates nothing.
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
		if sg := &s.segs[ord]; sg.nWin > 0 && !s.current(sg) {
			stale = append(stale, uint32(ord))
		}
	}
	s.stale = stale
	s.idfTableLocked()
	if workers <= 1 { // inline: the fan-out's closure is an allocation
		for _, ord := range stale {
			s.fill(&s.segs[ord])
		}
		return len(stale)
	}
	par.Chunks(workers, len(stale), func(_, lo, hi int) {
		for _, ord := range stale[lo:hi] {
			s.fill(&s.segs[ord])
		}
	})
	return len(stale)
}

// allocCompiledLocked gives a store its df column on its first compile;
// from then on it shares the per-bin columns' length and capacity and is
// rewritten with them. Callers hold compMu for writing.
func (s *Store) allocCompiledLocked() {
	if s.df == nil {
		s.df = make([]int32, len(s.counts), cap(s.counts))
	}
}

// CompiledViewAt fills v with the up-to-date compiled view of the entity
// with the given ordinal and returns the store's cell table: entry i is
// the id, centre and circumradius of the cell with dense index i. ok is
// false, and v untouched, if the store holds no history for the ordinal.
// A stale entity is refilled on the spot, so callers need no prior
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
		s.idfTableLocked()
		s.fill(sg)
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

// viewLocked fills v with the segment's columns and the IDF table, and
// returns the cell table. Callers hold compMu.
func (s *Store) viewLocked(sg *segment, v *View) []geo.CellGeom {
	w, nw, b, nb := sg.win, sg.nWin, sg.bin, sg.nBin
	v.Windows = s.windows[w : w+nw : w+nw]
	v.Off = s.off[w : w+nw+1 : w+nw+1]
	v.Cells = s.cells[b : b+nb : b+nb]
	v.Counts = s.counts[b : b+nb : b+nb]
	v.DF = s.df[b : b+nb : b+nb]
	v.IDFByDF = s.idfs[:len(s.idfs):len(s.idfs)]
	return s.geoms
}

// idfTableLocked brings the IDF table up to date: idf(n, df) for every df
// from 0 to the store's largest, n its entity count. When n moved it
// starts a new table rather than overwrite the one a view may hold; when
// only the largest df grew it appends, past the end of every view's
// table. Each entry is idf's own result, so a weight read from the table
// is bit-identical to one computed per bin. Callers hold compMu for
// writing.
func (s *Store) idfTableLocked() {
	if n := len(s.entities); n != s.idfsN {
		s.idfs, s.idfsN = nil, n
	}
	for df := int32(len(s.idfs)); df <= s.freq.maxDF; df++ {
		s.idfs = append(s.idfs, idf(s.idfsN, df))
	}
}

// fill writes the df column of a segment — how many entities hold each of
// its bins — and stamps it current. It writes the segment's own range of
// the column and only reads the rest of the store, so distinct segments
// fill concurrently.
func (s *Store) fill(sg *segment) {
	cells, df := s.cells[sg.bin:sg.bin+sg.nBin], s.df[sg.bin:sg.bin+sg.nBin]
	off := s.off[sg.win : sg.win+sg.nWin+1]
	i := 0 // the windows ascend, so each search starts at the last hit
	for k, win := range s.windows[sg.win : sg.win+sg.nWin] {
		var fw freqWindow
		fw, i = s.freq.window(i, win)
		for j := off[k]; j < off[k+1]; j++ {
			df[j] = fw.count(cells[j])
		}
	}
	sg.filled = s.epoch + 1
}
