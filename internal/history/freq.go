package history

import (
	"maps"
	"slices"
)

// freqIndex is the bin→entity frequency index behind IDF (Eq. 3), laid
// out like a history of the whole dataset: sorted windows and, per window,
// the cells some entity holds there, as dense indices into the store's
// cell table in ascending index order, with the number of entities holding
// each (df). Every window owns a separately allocated pair of columns, so
// Store.Add shifts one window's short column and nothing else. A bin costs
// 8 B of column where an entry of a hash map keyed by the bin costs
// ≈ 75 B, and a window's columns are where bin → entity postings would
// hang (ROADMAP item 4).
type freqIndex struct {
	windows []int64
	cols    []freqWindow // cols[k] belongs to windows[k]
	maxDF   int32        // the largest df of any bin
}

// freqWindow is one window's frequencies: df[j] entities hold cells[j].
type freqWindow struct {
	cells []int32
	df    []int32
}

// newFreqIndex counts, for every bin of the store's histories, the
// histories holding it, one window at a time: the windows' bin counts size
// one run each of a shared cell buffer (totalBins long), every history
// copies its cells into its windows' runs, and each run is sorted and
// folded into exactly sized columns. A history lists a bin once, so a
// cell's multiplicity in a run is the bin's entity count. Everything is
// indexed by the distinct windows seen, never by the range they span:
// timestamps are untrusted, and two records a century apart occupy two
// windows.
func newFreqIndex(s *Store) *freqIndex {
	count := make(map[int64]int32) // window → its bins over all histories
	for ord := range s.segs {
		h := s.HistoryAt(uint32(ord))
		for k, win := range h.windows {
			count[win] += h.off[k+1] - h.off[k]
		}
	}
	f := &freqIndex{windows: slices.Sorted(maps.Keys(count))}
	f.cols = make([]freqWindow, len(f.windows))
	// next[k] is where window k's next cell goes in buf: the start of its
	// run until the histories are copied in, the end of it afterwards.
	next := make([]int32, len(f.windows))
	for k := 1; k < len(next); k++ {
		next[k] = next[k-1] + count[f.windows[k-1]]
	}
	buf := make([]int32, s.totalBins)
	for ord := range s.segs {
		h := s.HistoryAt(uint32(ord))
		i := 0 // a history's windows ascend, so each search starts at the last hit
		for k, win := range h.windows {
			j, _ := slices.BinarySearch(f.windows[i:], win)
			i += j
			next[i] += int32(copy(buf[next[i]:], h.cells[h.off[k]:h.off[k+1]]))
		}
	}
	var lo int32
	for k := range f.windows {
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

// window returns the frequencies of one window (empty when no entity has
// a bin there) and its position, searching from position i on: a caller
// walking ascending windows passes the position the last one returned.
func (f *freqIndex) window(i int, win int64) (freqWindow, int) {
	j, ok := slices.BinarySearch(f.windows[i:], win)
	i += j
	if !ok {
		return freqWindow{}, i
	}
	return f.cols[i], i
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
// in the window, inserting the window and the cell in place when they are
// new.
func (f *freqIndex) add(win int64, cell int32) {
	k, ok := slices.BinarySearch(f.windows, win)
	if !ok {
		f.windows = slices.Insert(f.windows, k, win)
		f.cols = slices.Insert(f.cols, k, freqWindow{})
	}
	w := &f.cols[k]
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
