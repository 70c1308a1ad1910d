package history

import "slices"

// freqIndex is the bin→entity frequency index behind IDF (Eq. 3), laid
// out like a history of the whole dataset: per window of the store's
// window table, by its dense index, the cells some entity holds there, as
// dense indices into the store's cell table in ascending index order,
// with the number of entities holding each (df). Every window owns a
// separately allocated pair of columns, so Store.Add shifts one window's
// short column and nothing else. A bin costs 8 B of column where an entry
// of a hash map keyed by the bin costs ≈ 75 B, and a window's columns are
// where bin → entity postings would hang (ROADMAP item 4).
type freqIndex struct {
	cols  []freqWindow // cols[w] belongs to the store's window w
	maxDF int32        // the largest df of any bin
}

// freqWindow is one window's frequencies: df[j] entities hold cells[j].
type freqWindow struct {
	cells []int32
	df    []int32
}

// newFreqIndex counts, for every bin of the store's histories, the
// histories holding it, one window at a time: the windows' bin counts size
// one run each of a shared cell buffer (totalBins long), every bin's cell
// is copied into its window's run, and each run is sorted and folded into
// exactly sized columns. A history lists a bin once, so a cell's
// multiplicity in a run is the bin's entity count. Everything is indexed
// by the window table, which holds the distinct windows seen, never by the
// range they span: timestamps are untrusted, and two records a century
// apart occupy two windows.
func newFreqIndex(s *Store) *freqIndex {
	// next[w] is where window w's next cell goes in buf: its bin count,
	// then the start of its run until the bins are copied in, then the end
	// of it.
	next := make([]int32, len(s.windows))
	for _, sg := range s.segs {
		for _, w := range s.win[sg.bin : sg.bin+sg.nBin] {
			next[w]++
		}
	}
	var at int32
	for w, n := range next {
		next[w], at = at, at+n
	}
	buf := make([]int32, s.totalBins)
	for _, sg := range s.segs {
		for j := sg.bin; j < sg.bin+sg.nBin; j++ {
			w := s.win[j]
			buf[next[w]] = s.cells[j]
			next[w]++
		}
	}
	f := &freqIndex{cols: make([]freqWindow, len(s.windows))}
	var lo int32
	for k := range f.cols {
		run := buf[lo:next[k]]
		lo = next[k]
		slices.Sort(run)
		nCells := 0
		for j, c := range run {
			if j == 0 || c != run[j-1] {
				nCells++
			}
		}
		w := freqWindow{cells: make([]int32, 0, nCells), df: make([]int32, 0, nCells)}
		for j, c := range run {
			if j > 0 && c == run[j-1] {
				w.df[len(w.df)-1]++
				continue
			}
			w.cells = append(w.cells, c)
			w.df = append(w.df, 1)
		}
		f.cols[k] = w
		f.maxDF = max(f.maxDF, slices.Max(w.df)) // a window holds at least one bin
	}
	return f
}

// count returns how many entities hold the cell (a dense index) in this
// window.
func (w freqWindow) count(cell int32) int32 {
	j, ok := slices.BinarySearch(w.cells, cell)
	if !ok {
		return 0
	}
	return w.df[j]
}

// add counts one more entity holding the bin of the cell (a dense index)
// in the window (a dense index too), inserting the cell in place when it
// is new there.
func (f *freqIndex) add(win, cell int32) {
	for int(win) >= len(f.cols) {
		f.cols = append(f.cols, freqWindow{})
	}
	w := &f.cols[win]
	j, ok := slices.BinarySearch(w.cells, cell)
	if ok {
		w.df[j]++
		f.maxDF = max(f.maxDF, w.df[j])
		return
	}
	w.cells = slices.Insert(w.cells, j, cell)
	w.df = slices.Insert(w.df, j, 1)
	f.maxDF = max(f.maxDF, 1)
}
