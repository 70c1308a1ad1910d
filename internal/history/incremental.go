package history

import (
	"slices"

	"slim/internal/model"
)

// Add ingests one record into the store incrementally, inserting its bins
// into the entity's columns in place and updating the bin→entity IDF
// index, the average-history-size statistic and the window range, and
// returns the entity's ordinal. An entity the side's table has not seen
// gets the next ordinal; one its other store already added keeps the
// ordinal it was given there. After any sequence of Add calls the store's
// histories and statistics are indistinguishable from one built with Build
// on the concatenated records (see TestIncrementalAddMatchesBuild).
//
// Add supports the dynamic-feed setting the paper motivates (Sec. 1:
// "the scale and dynamic nature of location datasets"). It is not safe for
// concurrent use with readers; quiesce scoring before adding.
func (s *Store) Add(rec model.Record) uint32 {
	ord := s.ords.intern(rec.Entity)
	if n := int(ord) + 1; n > len(s.histories) {
		s.histories = append(s.histories, make([]*History, n-len(s.histories))...)
	}
	h := s.histories[ord]
	if h == nil {
		h = &History{Entity: s.ords.ID(ord), off: []int32{0}}
		s.histories[ord] = h
		i, _ := slices.BinarySearch(s.entities, h.Entity)
		s.entities = slices.Insert(s.entities, i, h.Entity)
		s.epoch++ // |U| changed: every baked IDF weight is stale
	}
	h.version++ // invalidate this entity's compiled view
	h.numRecs++

	win := s.Windowing.Window(rec.Unix)
	s.addScratch = appendBinWeights(s.addScratch[:0], rec, win, s.Level)
	for _, bw := range s.addScratch {
		if h.add(bw.Bin, bw.weight) {
			if s.freq != nil {
				s.freq.add(bw.Bin)
			}
			s.totalBins++
			s.epoch++ // bin frequency changed: baked IDF weights are stale
		}
	}
	s.avgBins = float64(s.totalBins) / float64(len(s.entities))
	s.noteWindows(win, win)
	return ord
}
