package history

// IDF returns the inverse-document-frequency weight of a time-location bin
// (Eq. 3), read off the frequency index: log(|U| / |{u : bin ∈ H_u}|).
// Bins absent from the dataset get the maximum weight log(|U|), consistent
// with the limit of Eq. 3. The scoring path reads the same weights through
// the df column and the IDF table (compiled.go); the tests hold both to
// this lookup.
func (s *Store) IDF(b Bin) float64 {
	s.mustScore("IDF")
	n := s.nEntities
	if n == 0 {
		return 0
	}
	var df int32
	if i, ok := s.cellIndex[b.Cell]; ok {
		fw, _ := s.freq.window(0, b.Window)
		df = fw.count(i)
	}
	return idf(n, df)
}
