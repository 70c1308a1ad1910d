package slim

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
)

// withSparseEntities returns a copy of d with n extra entities of k records
// each, every record's position and time drawn from one of d's own
// records. With k at or below Defaults' MinRecords the linker drops them.
func withSparseEntities(d Dataset, n, k int, seed int64) Dataset {
	r := rand.New(rand.NewSource(seed))
	out := Dataset{Name: d.Name, Records: slices.Clone(d.Records)}
	for e := range n {
		id := EntityID(fmt.Sprintf("sparse-%s-%03d", d.Name, e))
		for range k {
			src := d.Records[r.Intn(len(d.Records))]
			out.Records = append(out.Records, Record{Entity: id, LatLng: src.LatLng, Unix: src.Unix})
		}
	}
	return out
}

// sameCurve reports whether two probe curves are bit-for-bit equal.
func sameCurve(a, b TuneCurve) bool {
	return slices.Equal(a.Levels, b.Levels) && a.Elbow == b.Elbow &&
		slices.EqualFunc(a.Ratio, b.Ratio, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// TestAutoTuneIgnoresWhatTheLinkerDrops: the public tuner probes the
// entities the linkage is built from. Entities at or below MinRecords,
// which NewLinker drops, change neither its level nor its curves, and the
// level it returns is the one NewLinker auto-tunes to.
func TestAutoTuneIgnoresWhatTheLinkerDrops(t *testing.T) {
	src := GenerateSM(SMOptions{NumUsers: 1200, Days: 8, AvgRecords: 24, Seed: 43})
	w := SampleWorkload(&src, SampleOptions{Seed: 101})
	cfg := Defaults()
	level, cE, cI, err := AutoTuneSpatialLevel(w.E, w.I, cfg)
	if err != nil {
		t.Fatal(err)
	}

	sparseE := withSparseEntities(w.E, 200, 3, 4)
	sparseI := withSparseEntities(w.I, 200, 3, 104)
	got, gotE, gotI, err := AutoTuneSpatialLevel(sparseE, sparseI, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got != level || !sameCurve(gotE, cE) || !sameCurve(gotI, cI) {
		t.Errorf("sparse entities moved the probe: level %d (curves %v / %v), want %d (%v / %v)",
			got, gotE.Ratio, gotI.Ratio, level, cE.Ratio, cI.Ratio)
	}

	cfg.SpatialLevel = 0
	lk, err := NewLinker(sparseE, sparseI, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if lk.SpatialLevel() != got {
		t.Errorf("NewLinker auto-tunes to level %d, AutoTuneSpatialLevel returns %d", lk.SpatialLevel(), got)
	}
}

// TestAutoTuneRefusesWhatTheLinkerRefuses: an invalid record makes the
// tuner return NewLinker's error instead of probing.
func TestAutoTuneRefusesWhatTheLinkerRefuses(t *testing.T) {
	w := cabWorkload(t, 16, 9)
	bad := Dataset{Name: w.I.Name, Records: slices.Clone(w.I.Records)}
	bad.Records[3].LatLng.Lat = 91
	cfg := Defaults()
	cfg.SpatialLevel = 0
	_, linkErr := NewLinker(w.E, bad, cfg)
	_, _, _, tuneErr := AutoTuneSpatialLevel(w.E, bad, cfg)
	if linkErr == nil || tuneErr == nil || tuneErr.Error() != linkErr.Error() {
		t.Fatalf("AutoTuneSpatialLevel error %v, NewLinker error %v: want the same error", tuneErr, linkErr)
	}
	if !strings.HasPrefix(tuneErr.Error(), "slim: dataset I: ") {
		t.Errorf("error %q does not name the dataset", tuneErr)
	}
}
