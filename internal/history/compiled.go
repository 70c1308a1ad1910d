package history

import (
	"slices"

	"slim/internal/geo"
	"slim/internal/model"
)

// View is the compiled scoring view of one entity's history: four
// subslices of its store's columns plus the store's window, cell and IDF
// tables, which the similarity scorer runs on. It has History's layout —
// the bins sorted by (window, cell), a window's bins one run of the
// columns, which CommonWindows walks — and its window column, Cells and
// Counts are the history's own columns: a bin's cell is a small integer
// into the store's cell table (see Store.CompiledViewAt), whose entries
// carry the geometry the cell distance reads. On top it reads the one
// column a scoring store compiles for every bin, its document frequency,
// and the store's table of IDF weights by document frequency.
//
// A view is valid until the next Store.Add to its store, which may move
// the columns it views, and until the next Compile or CompiledViewAt after
// an Add that moved the store's epoch, which rewrites its df column and
// the IDF table in place. Add is not safe concurrently with readers, so a
// reader never sees either happen; a view must not be held across them:
// fetch it per use, as every scorer entry point does. The store never
// hands out a stale one — an Add that moves any document frequency or the
// entity count moves the store's epoch past its compiled stamp, so
// CompiledViewAt compiles the store before it fills a view.
type View struct {
	windowCol
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

// CommonWindows is the walk over a pair's common temporal windows: it
// calls fn for every window both views hold, ascending, with the window's
// bins [loA, hiA) in a and [loB, hiB) in b, positions into the views'
// parallel columns.
func CommonWindows(a, b *View, fn func(window int64, loA, hiA, loB, hiB int)) {
	winA, winB, tabA, tabB := a.win, b.win, a.windows, b.windows
	for i, j := 0, 0; i < len(winA) && j < len(winB); {
		switch wa, wb := tabA[winA[i]], tabB[winB[j]]; {
		case wa < wb:
			i = runEnd(winA, i)
		case wa > wb:
			j = runEnd(winB, j)
		default:
			hiA, hiB := runEnd(winA, i), runEnd(winB, j)
			fn(wa, i, hiA, j, hiB)
			i, j = hiA, hiB
		}
	}
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

// Compile brings the store's df column up to date with its epoch and
// returns how many entities it refreshed. Document frequencies and the
// entity count are dataset-level facts, so the column is current or stale
// as a whole, and the store keeps one stamp for it: one past the epoch it
// was last compiled at. A record that lands in an existing bin moves
// neither the bin set nor any df, so it stales nothing and Compile returns
// 0: the view reads the record weights from the history itself. A new bin
// or a new entity moves the epoch, and the next Compile refreshes every
// entity.
//
// Every df is counted afresh from the store's own columns (countDF), and
// the IDF table is rebuilt in place: idf(n, df) for every df from 0 to the
// largest counted, n the entity count, so a weight read from the table is
// bit-identical to one computed per bin. A Compile that finds the store
// current, and one after an epoch move alone, allocate nothing.
//
// Rescore calls Compile before fanning scoring across workers, so the
// parallel phase finds the store current and never waits.
func (s *Store) Compile() int {
	s.mustScore("Compile")
	s.compMu.Lock()
	defer s.compMu.Unlock()
	if s.compiled.Load() == s.epoch+1 {
		return 0
	}
	if s.df == nil {
		// From its first compile on, the df column shares the column
		// family's length and capacity and is rewritten with it.
		s.df = make([]int32, len(s.counts), cap(s.counts))
	}
	topDF := s.countDF()
	s.idfs = s.idfs[:0]
	for df := int32(0); df <= topDF; df++ {
		s.idfs = append(s.idfs, idf(s.nEntities, df))
	}
	s.compiled.Store(s.epoch + 1)
	return s.nEntities
}

// countDF writes every bin's document frequency into the df column and
// returns the largest. A history lists a bin once, so a bin's df is the
// number of live positions holding its (window, cell). A counting sort
// groups the positions by window index (byWin, window w's run ending at
// winEnd[w]); each run counts its cells in tally, indexed by the cell
// table, writes every position's count and clears what it counted. The
// scratch is sized by the windows and cells the tables hold, never by the
// time they span (two records a century apart occupy two windows), and
// kept, so a compile after an epoch move alone allocates nothing.
func (s *Store) countDF() (topDF int32) {
	s.winEnd = resized(s.winEnd, len(s.windows))
	s.byWin = resized(s.byWin, s.totalBins)
	s.tally = resized(s.tally, len(s.geoms))
	end := s.winEnd
	clear(end)
	for _, sg := range s.segs {
		for _, w := range s.win[sg.bin : sg.bin+sg.nBin] {
			end[w]++
		}
	}
	var at int32
	for w, n := range end { // end[w] becomes the start of window w's run
		end[w], at = at, at+n
	}
	for _, sg := range s.segs {
		for p := sg.bin; p < sg.bin+sg.nBin; p++ {
			w := s.win[p]
			s.byWin[end[w]] = p
			end[w]++ // and, once every position is placed, its end
		}
	}
	var lo int32
	for _, hi := range end {
		run := s.byWin[lo:hi]
		lo = hi
		for _, p := range run {
			s.tally[s.cells[p]]++
		}
		for _, p := range run {
			n := s.tally[s.cells[p]]
			s.df[p] = n
			topDF = max(topDF, n)
		}
		for _, p := range run {
			s.tally[s.cells[p]] = 0
		}
	}
	return topDF
}

// resized returns col at length n, growing its array as append would; a
// grown tail is zero.
func resized(col []int32, n int) []int32 {
	return slices.Grow(col[:0], n)[:n]
}

// CompiledViewAt fills v with the up-to-date compiled view of the entity
// with the given ordinal and returns the store's cell table: entry i is
// the id, centre and circumradius of the cell with dense index i. ok is
// false, and v untouched, if the store holds no history for the ordinal.
// A store behind its epoch is compiled on the spot, once, so callers need
// no prior Compile: concurrent first readers wait on the compile and find
// the store current. The cell table is append-only, so indices held by any
// view remain valid in every later table. Safe for concurrent use by
// scorers; like all reads, not safe concurrently with Add.
func (s *Store) CompiledViewAt(ord uint32, v *View) (cells []geo.CellGeom, ok bool) {
	s.mustScore("CompiledViewAt")
	sg := s.segAt(ord)
	if sg == nil {
		return nil, false
	}
	if s.compiled.Load() != s.epoch+1 {
		s.Compile()
	}
	b, nb := sg.bin, sg.nBin
	v.windowCol = windowCol{win: s.win[b : b+nb : b+nb], windows: s.windows}
	v.Cells = s.cells[b : b+nb : b+nb]
	v.Counts = s.counts[b : b+nb : b+nb]
	v.DF = s.df[b : b+nb : b+nb]
	v.IDFByDF = s.idfs[:len(s.idfs):len(s.idfs)]
	return s.geoms, true
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
