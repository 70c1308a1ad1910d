//go:build !race

package testenv

// RaceEnabled reports that the race detector is compiled in.
const RaceEnabled = false
