package history

import (
	"slices"

	"slim/internal/model"
)

// Add ingests one record into the store incrementally, inserting its bins
// into the entity's columns in place and updating the bin→entity IDF
// index, the average-history-size statistic and the window range. After
// any sequence of Add calls the store is indistinguishable from one built
// with Build on the concatenated records (see
// TestIncrementalAddMatchesBuild).
//
// Add supports the dynamic-feed setting the paper motivates (Sec. 1:
// "the scale and dynamic nature of location datasets"). It is not safe for
// concurrent use with readers; quiesce scoring before adding.
func (s *Store) Add(rec model.Record) {
	h := s.histories[rec.Entity]
	if h == nil {
		h = &History{Entity: rec.Entity, off: []int32{0}}
		s.histories[rec.Entity] = h
		i, _ := slices.BinarySearch(s.entities, rec.Entity)
		s.entities = slices.Insert(s.entities, i, rec.Entity)
		s.epoch++ // |U| changed: every baked IDF weight is stale
	}
	h.version++ // invalidate this entity's compiled view
	h.numRecs++

	win := s.Windowing.Window(rec.Unix)
	s.addScratch = appendBinWeights(s.addScratch[:0], rec, win, s.Level)
	for _, bw := range s.addScratch {
		if h.add(bw.Bin, bw.weight) {
			s.binEntities[bw.Bin]++
			s.totalBins++
			s.epoch++ // bin frequency changed: baked IDF weights are stale
		}
	}
	s.avgBins = float64(s.totalBins) / float64(len(s.entities))
	s.noteWindows(win, win)
}
