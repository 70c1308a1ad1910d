package slim

import (
	"slices"
	"testing"
)

// TestWindowsAreAbsolute: window k covers [k·|w|, (k+1)·|w|) of Unix time
// for every linker. One seeded with records whose earliest time is not on a
// window boundary and one built empty and fed the same records report the
// same grid and decompose each pair's score over the same window indices,
// and every record of a window lies in [k·|w|, (k+1)·|w|).
func TestWindowsAreAbsolute(t *testing.T) {
	const base = 1_000_000_123 // 223 s past a 900 s boundary
	side := func(prefix string, lag int64) []Record {
		var recs []Record
		for e, lat := range []float64{37.5, 38.5} {
			for k := range int64(8) { // above Defaults().MinRecords
				id := EntityID(prefix + string(rune('a'+e)))
				recs = append(recs, NewRecord(id, lat+0.01*float64(k%3), -122.3, base+lag+1300*k))
			}
		}
		return recs
	}
	recsE, recsI := side("e-", 0), side("i-", 40)

	cfg := Defaults()
	seeded, err := NewLinker(Dataset{Name: "E", Records: recsE}, Dataset{Name: "I", Records: recsI}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	empty, err := NewLinker(Dataset{Name: "E"}, Dataset{Name: "I"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	empty.AddE(recsE...)
	empty.AddI(recsI...)
	seeded.Run()
	empty.Run()

	wnd := seeded.Windowing()
	if got := empty.Windowing(); got != wnd {
		t.Fatalf("seeded linker windowing %+v, empty one %+v", wnd, got)
	}
	width, all := wnd.WidthSeconds, slices.Concat(recsE, recsI)
	for _, pair := range [][2]EntityID{{"e-a", "i-a"}, {"e-b", "i-b"}} {
		bs, be := seeded.ScoreBreakdown(pair[0], pair[1]), empty.ScoreBreakdown(pair[0], pair[1])
		if len(bs.Windows) == 0 || len(bs.Windows) != len(be.Windows) {
			t.Fatalf("%v: %d common windows seeded, %d empty", pair, len(bs.Windows), len(be.Windows))
		}
		for k, w := range bs.Windows {
			if be.Windows[k].Window != w.Window {
				t.Fatalf("%v: window %d is %d seeded, %d empty", pair, k, w.Window, be.Windows[k].Window)
			}
			held := 0
			for _, r := range all {
				if (r.Entity != pair[0] && r.Entity != pair[1]) || wnd.Window(r.Unix) != w.Window {
					continue
				}
				held++
				if start := w.Window * width; start > r.Unix || r.Unix >= start+width {
					t.Fatalf("%v: record at %d in window %d, which starts at %d", pair, r.Unix, w.Window, start)
				}
			}
			if held == 0 {
				t.Fatalf("%v: common window %d holds none of the pair's records", pair, w.Window)
			}
		}
	}
}
