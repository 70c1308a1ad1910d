package datagen

import (
	"bytes"
	"crypto/md5"
	"encoding/hex"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"

	"slim/internal/model"
	"slim/internal/testenv"
)

// workloadDigests is the md5 of every byte one slim-gen -sample run
// writes: the ground, both sides through WriteCSV, and the truth as
// sorted "e,i" lines.
type workloadDigests struct{ ground, e, i, truth string }

func digestWorkload(t *testing.T, ground model.Dataset, seed int64) workloadDigests {
	t.Helper()
	csvMD5 := func(d *model.Dataset) string {
		var buf bytes.Buffer
		if err := model.WriteCSV(&buf, d); err != nil {
			t.Fatal(err)
		}
		sum := md5.Sum(buf.Bytes())
		return hex.EncodeToString(sum[:])
	}
	s := Sample(&ground, SampleConfig{Seed: seed + 1})
	truth := make([]string, 0, len(s.Truth))
	for e, i := range s.Truth {
		truth = append(truth, fmt.Sprintf("%s,%s\n", e, i))
	}
	slices.Sort(truth)
	sum := md5.Sum([]byte(strings.Join(truth, "")))
	return workloadDigests{csvMD5(&ground), csvMD5(&s.E), csvMD5(&s.I), hex.EncodeToString(sum[:])}
}

// TestWorkloadBytesPinned pins the draw order of the generators and the
// sampler and the bytes of the CSV writer: the digests were taken before
// any of them was optimised, so a change that moves one RNG draw, one
// record or one written byte fails here.
func TestWorkloadBytesPinned(t *testing.T) {
	want := map[string]workloadDigests{
		"cab/seed1": {"70ce14be2a4822681e77cfadb085c80b", "e8cf76057ab84742b3e619053f87edf1", "2396e5dcbbf7e24e87d8061fe3a03d16", "aec5ec18b45e40f2b24829cf066607d9"},
		"cab/seed2": {"e345e88e2ccb92b54dd703ec5a0c2047", "c705b6010d3a5bbbd69a9232759e90ec", "bfab1428bf738eb750d4eb3fcab1f49d", "7c9d9990f62579657efaa3dc3d00ca25"},
		"cab/seed3": {"65eed2c3e145f1984ecc0ae5e37e0fec", "c85b27f20adc1fffebacc5c339f45c04", "184f46ef42a8de451c7a65d6498f9c7f", "18d8aad53313494be1c42c9a5a259ed8"},
		"sm/seed1":  {"f5feec83b8f1d25f0d59422719f6559a", "81c3de63348e982f0c93ab5e4b9b4546", "f34b3fb001a97af17a4341f7479902e2", "ab946904190490dcd1a0e261e311c21d"},
		"sm/seed2":  {"b0256bd5f9f2756426a20e4342caf46a", "c6ee2316343594dee69d38e6beee2167", "9b362dd07c2a2ef8d3694686032efeda", "74af9f1664b773352f13785e2d0e989c"},
		"sm/seed3":  {"30be4e1835a63ac037fd5d85b2245459", "48ab4b8058c9ef65a18d2aad31caed3e", "ae4f539328ade7a2c36bf144109414f9", "8d745daada95cf36593e033107283479"},
	}
	for seed := int64(1); seed <= 3; seed++ {
		cases := map[string]model.Dataset{
			"cab": Cab(CabConfig{NumTaxis: 40, Days: 2, Seed: seed}),
			"sm":  SM(SMConfig{NumUsers: 2000, Days: 26, Seed: seed}),
		}
		for kind, ground := range cases {
			name := fmt.Sprintf("%s/seed%d", kind, seed)
			got := digestWorkload(t, ground, seed)
			if got != want[name] {
				t.Errorf("%s: digests %+v, want %+v", name, got, want[name])
			}
		}
	}
}

// serveGround is the ground of the serve_* benchmark workloads: 8,000 SM
// users over 26 days, about 190k records.
func serveGround() model.Dataset { return SM(SMConfig{NumUsers: 8000, Days: 26, Seed: 1}) }

// allocated returns the bytes f allocates, garbage included.
func allocated(f func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc - before.TotalAlloc)
}

func recordBytes(recs []model.Record) float64 {
	return float64(len(recs)) * float64(unsafe.Sizeof(model.Record{}))
}

// TestSMAllocatesLittleBeyondItsOutput: the generator sizes its record
// slice once from the config and reuses its per-user buffers. Growing the
// slice by append and a fresh POI and time slice per user allocated 6.4×
// the records returned.
func TestSMAllocatesLittleBeyondItsOutput(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation budgets are meaningless under the race detector")
	}
	var d model.Dataset
	ratio := allocated(func() { d = serveGround() }) / recordBytes(d.Records)
	t.Logf("SM allocated %.2fx the %.1f MB of records it returned", ratio, recordBytes(d.Records)/1e6)
	if ratio > 2 {
		t.Errorf("SM allocates %.2fx its output, budget 2x", ratio)
	}
}

// TestSampleAllocatesLittleBeyondTheGround: the sampler groups the ground
// once, a copy of it, and reserves each side once for at most its
// entities' records, two thirds of the ground each at ratio 0.5. A map of
// per-entity slices, both sides grown by append and copied again through
// the filter allocated 7.8× the ground's records.
func TestSampleAllocatesLittleBeyondTheGround(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation budgets are meaningless under the race detector")
	}
	ground := serveGround()
	ratio := allocated(func() { Sample(&ground, SampleConfig{Seed: 2}) }) / recordBytes(ground.Records)
	t.Logf("Sample allocated %.2fx the %.1f MB of ground records", ratio, recordBytes(ground.Records)/1e6)
	if ratio > 3.5 {
		t.Errorf("Sample allocates %.2fx the ground's records, budget 3.5x", ratio)
	}
}

// TestWriteCSVAllocationsIndependentOfRecordCount: WriteCSV appends every
// row into one reused buffer, so writing a whole side costs the mallocs
// writing its first thousand records costs. Building five strings and a
// row per record through encoding/csv cost five mallocs a record.
func TestWriteCSVAllocationsIndependentOfRecordCount(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation budgets are meaningless under the race detector")
	}
	ground := serveGround()
	side := Sample(&ground, SampleConfig{Seed: 2}).E
	head := model.Dataset{Name: side.Name, Records: side.Records[:1000]}
	mallocs := func(d *model.Dataset) float64 {
		return testing.AllocsPerRun(3, func() {
			if err := model.WriteCSV(io.Discard, d); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, full := mallocs(&head), mallocs(&side)
	t.Logf("WriteCSV: %.0f mallocs for %d records, %.0f for %d", full, len(side.Records), small, len(head.Records))
	if full > small {
		t.Errorf("WriteCSV made %.0f mallocs for %d records and %.0f for %d: it allocates per record",
			full, len(side.Records), small, len(head.Records))
	}
}
