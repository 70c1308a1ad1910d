package history

import (
	"cmp"
	"sort"

	"slim/internal/model"
)

// Add ingests one record into the store incrementally, inserting its bins
// into the entity's segment in place and updating the entity count, the
// average-history-size statistic and the epoch, and returns the entity's
// ordinal. An entity the side's table has not seen gets the next ordinal;
// one its other store already added keeps the ordinal it was given there.
// After any sequence of Add calls the store's histories and statistics are
// indistinguishable from one built with Build on the concatenated records
// (see TestIncrementalAddMatchesBuild and FuzzStoreAddMatchesBuild).
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
	if sg.nBin == 0 {
		s.nEntities++
		s.epoch++ // |U| changed: the compiled df column is stale
	}

	win := s.Windowing.Window(rec.Unix)
	s.addScratch = appendBinWeights(s.addScratch[:0], rec, win, s.Level)
	for _, bw := range s.addScratch {
		if s.add(sg, bw.Bin, bw.weight) {
			s.totalBins++
			s.epoch++ // the bin set changed: the compiled df column is stale
		}
	}
	s.avgBins = float64(s.totalBins) / float64(s.nEntities)
	return ord
}

// add folds weight into the segment's bin, inserting it in place when it
// is new, and reports whether the bin is new.
func (s *Store) add(sg *segment, b Bin, weight float64) bool {
	n := int(sg.nBin)
	j := sort.Search(n, func(j int) bool { return s.compareBin(sg.bin+int32(j), b) >= 0 })
	if j < n && s.compareBin(sg.bin+int32(j), b) == 0 {
		s.counts[sg.bin+int32(j)] += weight
		return false
	}
	s.insertBin(sg, j, b, weight)
	return true
}

// compareBin orders the store's bin j against b by (window, cell), the
// order of a segment's bins: the window by the value the window table
// gives its index, and a scoring store's cell by the id its cell table
// gives its index.
func (s *Store) compareBin(j int32, b Bin) int {
	if c := cmp.Compare(s.windows[s.win[j]], b.Window); c != 0 {
		return c
	}
	if !s.scoring() {
		return cmp.Compare(s.ids[j], b.Cell)
	}
	return cmp.Compare(s.geoms[s.cells[j]].ID, b.Cell)
}

// insertBin inserts a new bin at position j of the segment's bin range,
// interning its window on first sight. A scoring store interns the cell,
// on first sight too. The df column is not shifted: the new bin moves the
// epoch, so the store is compiled before the column is read.
func (s *Store) insertBin(sg *segment, j int, b Bin, weight float64) {
	if need := sg.nBin + 1; need > sg.binRoom {
		s.moveBins(sg, grown(sg.binRoom, need))
	}
	at, n := int(sg.bin), int(sg.nBin)
	insertAt(s.win, at, j, n, s.internWindow(b.Window))
	if s.scoring() {
		insertAt(s.cells, at, j, n, s.intern(b.Cell))
	} else {
		insertAt(s.ids, at, j, n, b.Cell)
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

// moveBins moves the segment's bin range to the end of the columns with
// the given room; the old range becomes dead.
func (s *Store) moveBins(sg *segment, room int32) {
	if len(s.counts)+int(room) > cap(s.counts) {
		s.repackBins(room)
	}
	from, n, at := sg.bin, sg.nBin, int32(len(s.counts))
	s.win = moveRange(s.win, from, n, at, room)
	s.ids = moveRange(s.ids, from, n, at, room)
	s.cells = moveRange(s.cells, from, n, at, room)
	s.counts = moveRange(s.counts, from, n, at, room)
	s.df = moveRange(s.df, from, n, at, room)
	sg.bin, sg.binRoom = at, room
}

// moveRange extends a column by room past its end, at, within its
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

// spareDiv sets the spare capacity of a rewritten column family: an
// eighth of its live room. The columns of the family share one length and
// one capacity. A segment that moves takes its new range from the spare
// capacity and leaves its old one dead; the move that finds no capacity
// left rewrites the family instead of growing it — compactly, in ordinal
// order, every segment keeping its room — so dead ranges never exceed a
// ninth of the family, and the rewrite copies less than the reallocation
// append would have made. Dead, spare and per-segment room together stay
// within about a quarter of the family, and it is rewritten once per
// eighth of it moved, not once per relink. (Trimming every segment's room
// to its live size at a rewrite was measured too: it halved the bytes of
// room but doubled the rewrites, and serve_fresh's peak did not fall.) A
// built store has no spare capacity, so its first move rewrites. This
// runs in Add, not in Compile, because a signature store is never
// compiled and must stay bounded too.
const spareDiv = 8

// repackBins rewrites the column family compactly with spare capacity for
// at least extra more bins, the df column included: a compiled store
// stays compiled.
func (s *Store) repackBins(extra int32) {
	var live int32
	for _, sg := range s.segs {
		live += sg.binRoom
	}
	n := live + max(extra, live/spareDiv)
	s.win = repacked(s.win, s.segs, live, n)
	s.ids = repacked(s.ids, s.segs, live, n)
	s.cells = repacked(s.cells, s.segs, live, n)
	s.counts = repacked(s.counts, s.segs, live, n)
	s.df = repacked(s.df, s.segs, live, n)
	var at int32
	for k := range s.segs {
		s.segs[k].bin, at = at, at+s.segs[k].binRoom
	}
}

// repacked returns a column rewritten compactly, in ordinal order,
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
