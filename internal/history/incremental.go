package history

import (
	"cmp"
	"slices"

	"slim/internal/geo"
	"slim/internal/model"
)

// Add ingests one record into the store incrementally, inserting its bins
// into the entity's segment in place and updating the bin→entity IDF
// index and the average-history-size statistic, and returns the entity's
// ordinal. An entity the side's table has not seen gets the next ordinal;
// one its other store already added keeps the ordinal it was given there. After any sequence of Add calls the store's
// histories and statistics are indistinguishable from one built with Build
// on the concatenated records (see TestIncrementalAddMatchesBuild and
// FuzzStoreAddMatchesBuild).
//
// Add supports the dynamic-feed setting the paper motivates (Sec. 1:
// "the scale and dynamic nature of location datasets"). It is not safe for
// concurrent use with readers; quiesce scoring before adding.
func (s *Store) Add(rec model.Record) uint32 {
	ord := s.ords.intern(rec.Entity)
	for len(s.segs) <= int(ord) {
		s.segs = append(s.segs, segment{})
	}
	sg := &s.segs[ord]
	if sg.nWin == 0 {
		s.nEntities++
		s.epoch++ // |U| changed: every compiled segment is stale
	}

	win := s.Windowing.Window(rec.Unix)
	s.addScratch = appendBinWeights(s.addScratch[:0], rec, win, s.Level)
	for _, bw := range s.addScratch {
		if s.add(sg, bw.Bin, bw.weight) {
			s.totalBins++
			s.epoch++ // bin frequency changed: every compiled segment is stale
		}
	}
	s.avgBins = float64(s.totalBins) / float64(s.nEntities)
	return ord
}

// add folds weight into the segment's bin, inserting its window and cell
// in place when they are new, and reports whether the bin is new.
func (s *Store) add(sg *segment, b Bin, weight float64) bool {
	k, ok := slices.BinarySearch(s.windows[sg.win:sg.win+sg.nWin], b.Window)
	if !ok {
		s.insertWindow(sg, k, b.Window)
	}
	off := s.off[sg.win : sg.win+sg.nWin+1]
	lo, hi := sg.bin+off[k], sg.bin+off[k+1]
	j, ok := s.findCell(lo, hi, b.Cell)
	if ok {
		s.counts[int(lo)+j] += weight
		return false
	}
	s.insertBin(sg, int(off[k])+j, b, weight)
	for i := k + 1; i < len(off); i++ {
		off[i]++
	}
	return true
}

// findCell returns the position of the cell among the ascending bins
// [lo, hi) of the per-bin columns, and whether it is there. A scoring
// store compares its dense indices by the cell ids its table gives them.
func (s *Store) findCell(lo, hi int32, cell geo.CellID) (int, bool) {
	if s.freq == nil {
		return slices.BinarySearch(s.ids[lo:hi], cell)
	}
	return slices.BinarySearchFunc(s.cells[lo:hi], cell, func(i int32, c geo.CellID) int {
		return cmp.Compare(s.geoms[i].ID, c)
	})
}

// insertWindow inserts an empty window at position k of the segment.
func (s *Store) insertWindow(sg *segment, k int, win int64) {
	if need := sg.nWin + 2; need > sg.winRoom {
		s.moveWindows(sg, grown(sg.winRoom, need))
	}
	n := int(sg.nWin)
	wins, off := s.windows[sg.win:sg.win+sg.nWin+1], s.off[sg.win:sg.win+sg.nWin+2]
	copy(wins[k+1:], wins[k:n])
	wins[k] = win
	copy(off[k+1:], off[k:n+1]) // off[k] stays: window k starts, and ends, there
	sg.nWin++
}

// insertBin inserts a new bin at position j of the segment's bin range;
// the caller shifts the window offsets past it. A scoring store interns
// the cell, on first sight, and counts the bin in the frequency index. The
// df column is not shifted: the new bin moves the epoch, so the segment is
// refilled before it is read.
func (s *Store) insertBin(sg *segment, j int, b Bin, weight float64) {
	if need := sg.nBin + 1; need > sg.binRoom {
		s.moveBins(sg, grown(sg.binRoom, need))
	}
	at, n := int(sg.bin), int(sg.nBin)
	if s.freq == nil {
		insertAt(s.ids, at, j, n, b.Cell)
	} else {
		cell := s.intern(b.Cell)
		insertAt(s.cells, at, j, n, cell)
		s.freq.add(b.Window, cell)
	}
	insertAt(s.counts, at, j, n, weight)
	sg.nBin++
}

// insertAt shifts the n elements of a column range starting at position
// at one slot right from its j-th on and writes v there.
func insertAt[E any](col []E, at, j, n int, v E) {
	r := col[at : at+n+1]
	copy(r[j+1:], r[j:n])
	r[j] = v
}

// grown is the room a full segment range moves to: a quarter more (plus
// one), where append would double a short range. A streamed history gains
// a bin or two per flush, so doubling would leave most of it empty.
func grown(room, need int32) int32 {
	for room < need {
		room += room/4 + 1
	}
	return room
}

// moveWindows moves the segment's window range to the end of the
// per-window columns with the given room; the old range becomes dead.
func (s *Store) moveWindows(sg *segment, room int32) {
	if len(s.windows)+int(room) > cap(s.windows) {
		s.repackWindows(room)
	}
	at := int32(len(s.windows))
	s.windows, s.off = s.windows[:at+room], s.off[:at+room]
	copy(s.windows[at:], s.windows[sg.win:sg.win+sg.nWin])
	if sg.nWin == 0 {
		s.off[at] = 0 // a new history: no window yet, its bins start at 0
	} else {
		copy(s.off[at:], s.off[sg.win:sg.win+sg.nWin+1])
	}
	sg.win, sg.winRoom = at, room
}

// moveBins moves the segment's bin range to the end of the per-bin
// columns with the given room; the old range becomes dead.
func (s *Store) moveBins(sg *segment, room int32) {
	if len(s.counts)+int(room) > cap(s.counts) {
		s.repackBins(room)
	}
	from, n, at := sg.bin, sg.nBin, int32(len(s.counts))
	s.ids = moveRange(s.ids, from, n, at, room)
	s.cells = moveRange(s.cells, from, n, at, room)
	s.counts = moveRange(s.counts, from, n, at, room)
	s.df = moveRange(s.df, from, n, at, room)
	sg.bin, sg.binRoom = at, room
}

// moveRange extends a per-bin column by room past its end, at, within its
// capacity, and copies the n elements from position from there. A column
// the store does not keep (nil) stays nil.
func moveRange[E any](col []E, from, n, at, room int32) []E {
	if col == nil {
		return nil
	}
	col = col[:at+room]
	copy(col[at:], col[from:from+n])
	return col
}

// spareDiv sets the spare capacity of a rewritten column family: a
// quarter of its live room. The columns of a family share one length and
// one capacity. A segment that moves takes its new range from the spare
// capacity and leaves its old one dead; the move that finds no capacity
// left rewrites the family instead of growing it — compactly, in ordinal
// order, every segment keeping its room — so dead ranges never exceed a
// fifth of a family, and the rewrite copies less than the reallocation
// append would have made. A built store has no spare capacity, so its
// first move rewrites. This runs in Add, not in Compile, because a
// signature store is never compiled and must stay bounded too.
const spareDiv = 4

// repackWindows rewrites the per-window columns compactly with spare
// capacity for at least extra more slots.
func (s *Store) repackWindows(extra int32) {
	var live int32
	for _, sg := range s.segs {
		live += sg.winRoom
	}
	n := live + max(extra, live/spareDiv)
	windows, off := make([]int64, live, n), make([]int32, live, n)
	var at int32
	for k := range s.segs {
		sg := &s.segs[k]
		copy(windows[at:], s.windows[sg.win:sg.win+sg.nWin])
		if sg.winRoom > 0 {
			copy(off[at:], s.off[sg.win:sg.win+sg.nWin+1])
		}
		sg.win, at = at, at+sg.winRoom
	}
	s.windows, s.off = windows, off
}

// repackBins rewrites the per-bin columns compactly with spare capacity
// for at least extra more bins, the df column included: a compiled
// segment stays compiled.
func (s *Store) repackBins(extra int32) {
	var live int32
	for _, sg := range s.segs {
		live += sg.binRoom
	}
	n := live + max(extra, live/spareDiv)
	s.ids = repacked(s.ids, s.segs, live, n)
	s.cells = repacked(s.cells, s.segs, live, n)
	s.counts = repacked(s.counts, s.segs, live, n)
	s.df = repacked(s.df, s.segs, live, n)
	var at int32
	for k := range s.segs {
		s.segs[k].bin, at = at, at+s.segs[k].binRoom
	}
}

// repacked returns a per-bin column rewritten compactly, in ordinal order,
// every segment keeping its room, with capacity n. A column the store does
// not keep (nil) stays nil.
func repacked[E any](col []E, segs []segment, live, n int32) []E {
	if col == nil {
		return nil
	}
	out := make([]E, live, n)
	var at int32
	for _, sg := range segs {
		copy(out[at:], col[sg.bin:sg.bin+sg.nBin])
		at += sg.binRoom
	}
	return out
}
