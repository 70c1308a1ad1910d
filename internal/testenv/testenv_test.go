package testenv

import (
	"runtime"
	"testing"
)

// TestRetainedReportsAShrink drops 8 MB between the two readings: the
// heap shrank, and Retained must say so with a negative delta rather
// than wrap to a huge positive one.
func TestRetainedReportsAShrink(t *testing.T) {
	buf := make([]byte, 8<<20)
	before := LiveHeap()
	runtime.KeepAlive(buf)
	if got := Retained(before); got > -4<<20 {
		t.Fatalf("8 MB dropped between the readings: Retained reads %d B, want below -4 MB", got)
	}
}
