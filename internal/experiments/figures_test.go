package experiments

import (
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"

	"slim/internal/testenv"
)

// What varies between two runs of slim-experiments: the "(name finished in
// …)" lines, and the tables of wall times (Fig. 7's runtime panels and Fig.
// 11's), whose column widths move with the values.
var (
	finishedLine  = regexp.MustCompile(`^\(\S+ finished in .*\)$`)
	wallTimeTitle = regexp.MustCompile(`runtime \(ms\)|runtime-ms`)
)

// stripWallTime drops the finished lines, and each wall-time table from its
// title through the blank line after it.
func stripWallTime(out string) string {
	var kept []string
	inTable := false
	for _, line := range strings.Split(out, "\n") {
		switch {
		case inTable:
			inTable = line != ""
		case finishedLine.MatchString(line):
		case wallTimeTitle.MatchString(line):
			inTable = true
		default:
			kept = append(kept, line)
		}
	}
	return strings.Join(kept, "\n")
}

// TestFiguresTinyGolden pins what "slim-experiments -tiny all" prints:
// every entry of Figures at TinyScale, framed as the CLI frames it, minus
// the wall times, byte for byte against testdata/tiny-all.golden — the
// CLI's output captured (and stripped the same way) before the figure
// list, the grid renderer and the one link type in grading existed.
func TestFiguresTinyGolden(t *testing.T) {
	if testing.Short() || testenv.RaceEnabled {
		t.Skip("runs every figure (≈ 3 s uninstrumented, ≈ 30 s under -race); CI runs it without -race")
	}
	var b strings.Builder
	for _, f := range Figures {
		text, err := f.Run(TinyScale())
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		fmt.Fprintf(&b, "==== %s ====\n%s(%s finished in 0s)\n\n", f.Name, text, f.Name)
	}
	want, err := os.ReadFile("testdata/tiny-all.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := stripWallTime(b.String())
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("output differs from the golden file at line %d:\ngot:  %q\nwant: %q", i+1, g, w)
		}
	}
}
