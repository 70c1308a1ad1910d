package history

import (
	"cmp"
	"slices"

	"slim/internal/geo"
)

// freqIndex is the bin→entity frequency index behind IDF (Eq. 3), laid
// out like a history of the whole dataset: sorted windows and, per window,
// the sorted cells some entity holds there with the number of entities
// holding each (df). Every window owns a separately allocated pair of
// columns, so Store.Add shifts one window's short column and nothing else.
// A bin costs 12 B of column where an entry of a hash map keyed by the bin
// costs ≈ 75 B, and a window's columns are where bin → entity postings
// would hang (ROADMAP item 3).
type freqIndex struct {
	windows []int64
	cols    []freqWindow // cols[k] belongs to windows[k]
}

// freqWindow is one window's frequencies: df[j] entities hold cells[j].
type freqWindow struct {
	cells []geo.CellID
	df    []int32
}

// newFreqIndex counts, for every bin of the given histories, the histories
// holding it: all bins are gathered into one buffer, sorted once and
// folded, run by run, into exactly sized columns. A history lists a bin
// once, so a run's length is the bin's entity count.
func newFreqIndex(histories []*History, totalBins int) *freqIndex {
	bins := make([]Bin, 0, totalBins)
	for _, h := range histories {
		h.Bins(func(b Bin, _ float64) { bins = append(bins, b) })
	}
	slices.SortFunc(bins, func(a, b Bin) int {
		if a.Window != b.Window {
			return cmp.Compare(a.Window, b.Window)
		}
		return cmp.Compare(a.Cell, b.Cell)
	})
	f := &freqIndex{}
	for lo := 0; lo < len(bins); {
		hi, nCells := lo, 0
		for ; hi < len(bins) && bins[hi].Window == bins[lo].Window; hi++ {
			if hi == lo || bins[hi].Cell != bins[hi-1].Cell {
				nCells++
			}
		}
		w := freqWindow{cells: make([]geo.CellID, 0, nCells), df: make([]int32, 0, nCells)}
		for i := lo; i < hi; i++ {
			if i > lo && bins[i].Cell == bins[i-1].Cell {
				w.df[len(w.df)-1]++
				continue
			}
			w.cells = append(w.cells, bins[i].Cell)
			w.df = append(w.df, 1)
		}
		f.windows = append(f.windows, bins[lo].Window)
		f.cols = append(f.cols, w)
		lo = hi
	}
	return f
}

// window returns the frequencies of one window (empty when no entity has
// a bin there).
func (f *freqIndex) window(win int64) freqWindow {
	k, ok := slices.BinarySearch(f.windows, win)
	if !ok {
		return freqWindow{}
	}
	return f.cols[k]
}

// count returns how many entities hold the cell in this window.
func (w freqWindow) count(cell geo.CellID) int32 {
	j, ok := slices.BinarySearch(w.cells, cell)
	if !ok {
		return 0
	}
	return w.df[j]
}

// add counts one more entity holding the bin, inserting its window and
// cell in place when they are new.
func (f *freqIndex) add(b Bin) {
	k, ok := slices.BinarySearch(f.windows, b.Window)
	if !ok {
		f.windows = slices.Insert(f.windows, k, b.Window)
		f.cols = slices.Insert(f.cols, k, freqWindow{})
	}
	w := &f.cols[k]
	j, ok := slices.BinarySearch(w.cells, b.Cell)
	if ok {
		w.df[j]++
		return
	}
	w.cells = slices.Insert(w.cells, j, b.Cell)
	w.df = slices.Insert(w.df, j, 1)
}
