//go:build race

package lsh

// raceEnabled reports that this test binary was built with the race
// detector, under which sync.Pool drops items at random and so defeats
// allocation gates over pooled scratch.
const raceEnabled = true
