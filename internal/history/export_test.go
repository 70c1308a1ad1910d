package history

import "sort"

// IDF returns the inverse-document-frequency weight of a time-location bin
// (Eq. 3): log(|U| / |{u : bin ∈ H_u}|). It compiles the store and reads
// the compiled df at any position that holds the bin, or 0 if none does,
// so bins absent from the dataset get the maximum weight log(|U|),
// consistent with the limit of Eq. 3. The scoring path reads the same
// weights through the df column and the IDF table (compiled.go); the tests
// hold both to this lookup, and this lookup to oracles of their own.
func (s *Store) IDF(b Bin) float64 {
	s.mustScore("IDF")
	n := s.nEntities
	if n == 0 {
		return 0
	}
	s.Compile()
	var df int32
	for _, sg := range s.segs {
		if p, ok := s.binAt(&sg, b); ok {
			df = s.df[p]
			break
		}
	}
	return idf(n, df)
}

// binAt returns the position of the segment's bin b, if it holds it.
func (s *Store) binAt(sg *segment, b Bin) (int32, bool) {
	j := sg.bin + int32(sort.Search(int(sg.nBin), func(j int) bool { return s.compareBin(sg.bin+int32(j), b) >= 0 }))
	return j, j < sg.bin+sg.nBin && s.compareBin(j, b) == 0
}

// Windows returns the sorted leaf window indices with at least one record,
// in a new slice.
func (h *History) Windows() []int64 {
	var out []int64
	h.EachWindow(func(w int64, _, _ int) { out = append(out, w) })
	return out
}

// BinWindows resolves the window of every bin of the view, so tests can
// compare views of stores that interned their windows in another order.
func (v *View) BinWindows() []int64 {
	out := make([]int64, len(v.win))
	for j, w := range v.win {
		out[j] = v.windows[w]
	}
	return out
}
