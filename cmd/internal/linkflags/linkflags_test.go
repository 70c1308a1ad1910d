package linkflags

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"

	"slim"
)

func parse(t *testing.T, line string) slim.Config {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	cfg := Bind(fs)
	if err := fs.Parse(strings.Fields(line)); err != nil {
		t.Fatalf("parsing %q: %v", line, err)
	}
	return cfg()
}

// TestFullFlagLine sets every linkage flag away from its default and
// requires each to land in its Config field.
func TestFullFlagLine(t *testing.T) {
	got := parse(t, "-window 30 -level 14 -max-speed 1.5 -b 0.25 -min-records 3 -workers 2 "+
		"-threshold otsu "+
		"-lsh -lsh-threshold 0.4 -lsh-step 24 -lsh-level 13 -lsh-buckets 1024")
	want := slim.Config{
		WindowMinutes:    30,
		SpatialLevel:     14,
		MaxSpeedKmPerMin: 1.5,
		B:                0.25,
		MinRecords:       3,
		Workers:          2,
		Threshold:        slim.ThresholdOtsu,
		LSH:              &slim.LSHConfig{Threshold: 0.4, StepWindows: 24, SpatialLevel: 13, NumBuckets: 1024},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("config = %+v (LSH %+v), want %+v (LSH %+v)", got, got.LSH, want, want.LSH)
	}
}

// TestLSHOffLeavesConfigNil: the -lsh-* tuning flags alone must not enable
// the filter, and the remaining defaults are the documented ones.
func TestLSHOffLeavesConfigNil(t *testing.T) {
	got := parse(t, "-lsh-threshold 0.4 -lsh-buckets 1024")
	if got.LSH != nil {
		t.Fatalf("LSH = %+v without -lsh, want nil", got.LSH)
	}
	want := slim.Config{
		WindowMinutes: 15, SpatialLevel: 12, MaxSpeedKmPerMin: 2, B: 0.5, MinRecords: 5,
		Threshold: slim.ThresholdGMM,
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("defaults = %+v, want %+v", got, want)
	}
	if on := parse(t, "-lsh"); on.LSH == nil || *on.LSH != (slim.LSHConfig{Threshold: 0.6, StepWindows: 48, SpatialLevel: 16, NumBuckets: 4096}) {
		t.Fatalf("-lsh defaults = %+v", on.LSH)
	}
}

// TestLinkflagsDefaultsAreTheLibrarys: with no arguments Bind yields
// slim.Defaults() itself, and -lsh adds the filter a zero LSHConfig
// normalizes to — the flags spell no default of their own.
func TestLinkflagsDefaultsAreTheLibrarys(t *testing.T) {
	want := slim.Defaults()
	if got := parse(t, ""); !reflect.DeepEqual(got, want) {
		t.Fatalf("no flags = %+v, want slim.Defaults() %+v", got, want)
	}
	filter, err := slim.LSHConfig{}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	want.LSH = &filter
	if got := parse(t, "-lsh"); !reflect.DeepEqual(got, want) {
		t.Fatalf("-lsh = %+v (LSH %+v), want %+v (LSH %+v)", got, got.LSH, want, want.LSH)
	}
}

// TestNoMatcherFlag: greedy is the only matcher, so slim-link and slimd —
// both take their linkage flags from Bind — have no flag to choose one.
func TestNoMatcherFlag(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	Bind(fs)
	err := fs.Parse([]string{"-matcher", "greedy"})
	if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: -matcher") {
		t.Errorf("-matcher greedy: %v, want an unknown-flag error", err)
	}
}
