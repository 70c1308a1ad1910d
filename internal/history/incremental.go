package history

import (
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
// on the concatenated records (see TestIncrementalAddMatchesBuild).
//
// Add supports the dynamic-feed setting the paper motivates (Sec. 1:
// "the scale and dynamic nature of location datasets"). It is not safe for
// concurrent use with readers; quiesce scoring before adding.
func (s *Store) Add(rec model.Record) uint32 {
	ord := s.ords.intern(rec.Entity)
	for len(s.segs) <= int(ord) {
		s.segs = append(s.segs, segment{compVersion: notCompiled})
	}
	sg := &s.segs[ord]
	if sg.nWin == 0 {
		id := s.ords.ID(ord)
		i, _ := slices.BinarySearch(s.entities, id)
		s.entities = slices.Insert(s.entities, i, id)
		s.epoch++ // |U| changed: every baked IDF weight is stale
	}
	sg.version++ // invalidate this entity's compiled columns

	win := s.Windowing.Window(rec.Unix)
	s.addScratch = appendBinWeights(s.addScratch[:0], rec, win, s.Level)
	for _, bw := range s.addScratch {
		if s.add(sg, bw.Bin, bw.weight) {
			if s.freq != nil {
				s.freq.add(bw.Bin)
			}
			s.totalBins++
			s.epoch++ // bin frequency changed: baked IDF weights are stale
		}
	}
	s.avgBins = float64(s.totalBins) / float64(len(s.entities))
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
	j, ok := slices.BinarySearch(s.cells[lo:hi], b.Cell)
	if ok {
		s.counts[int(lo)+j] += weight
		return false
	}
	s.insertBin(sg, int(off[k])+j, b.Cell, weight)
	for i := k + 1; i < len(off); i++ {
		off[i]++
	}
	return true
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

// insertBin inserts a bin at position j of the segment's bin range; the
// caller shifts the window offsets past it.
func (s *Store) insertBin(sg *segment, j int, cell geo.CellID, weight float64) {
	if need := sg.nBin + 1; need > sg.binRoom {
		s.moveBins(sg, grown(sg.binRoom, need))
	}
	n := int(sg.nBin)
	cells, counts := s.cells[sg.bin:sg.bin+sg.nBin+1], s.counts[sg.bin:sg.bin+sg.nBin+1]
	copy(cells[j+1:], cells[j:n])
	copy(counts[j+1:], counts[j:n])
	cells[j], counts[j] = cell, weight
	sg.nBin++
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
// columns with the given room; the old range becomes dead. The compiled
// columns are not copied: the history changed, so the next compile
// rebuilds them.
func (s *Store) moveBins(sg *segment, room int32) {
	if len(s.cells)+int(room) > cap(s.cells) {
		s.repackBins(room)
	}
	at := int32(len(s.cells))
	s.cells, s.counts = s.cells[:at+room], s.counts[:at+room]
	if s.dense != nil {
		s.dense, s.idf = s.dense[:at+room], s.idf[:at+room]
	}
	copy(s.cells[at:], s.cells[sg.bin:sg.bin+sg.nBin])
	copy(s.counts[at:], s.counts[sg.bin:sg.bin+sg.nBin])
	sg.bin, sg.binRoom = at, room
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
// for at least extra more bins, the compiled ones included: a compiled
// segment stays compiled.
func (s *Store) repackBins(extra int32) {
	var live int32
	for _, sg := range s.segs {
		live += sg.binRoom
	}
	n := live + max(extra, live/spareDiv)
	cells, counts := make([]geo.CellID, live, n), make([]float64, live, n)
	var dense []int32
	var idf []float64
	if s.dense != nil {
		dense, idf = make([]int32, live, n), make([]float64, live, n)
	}
	var at int32
	for k := range s.segs {
		sg := &s.segs[k]
		from, to := sg.bin, sg.bin+sg.nBin
		copy(cells[at:], s.cells[from:to])
		copy(counts[at:], s.counts[from:to])
		if dense != nil {
			copy(dense[at:], s.dense[from:to])
			copy(idf[at:], s.idf[from:to])
		}
		sg.bin, at = at, at+sg.binRoom
	}
	s.cells, s.counts, s.dense, s.idf = cells, counts, dense, idf
}
