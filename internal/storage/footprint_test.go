package storage

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"slim"
	"slim/internal/datagen"
	"slim/internal/testenv"
)

// tempCountingFS counts the bytes written through temp files — what the
// checkpoint protocol writes; WAL appends go through OpenFile.
type tempCountingFS struct {
	FS
	bytes int64
}

type countingFile struct {
	File
	n *int64
}

func (f *tempCountingFS) CreateTemp(dir, pattern string) (File, error) {
	file, err := f.FS.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: file, n: &f.bytes}, nil
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	*f.n += int64(n)
	return n, err
}

// TestStoreHoldsNoRecords is the footprint gate of "the data directory is
// the only holder of raw records": 200,000 records go through the store's
// one append path under slimd's default fsync policy, with a checkpoint
// every 50 batches, and between the first checkpoint and the last neither
// the heap the store keeps alive nor the bytes a checkpoint writes may
// grow with them. A store that mirrored the log would retain ≈ 10 MB here
// and write as much again into every checkpoint.
func TestStoreHoldsNoRecords(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("heap budget; meaningless under the race detector")
	}
	const batches, perBatch, every, links = 200, 1000, 50, 500
	fs := &tempCountingFS{FS: OSFS}
	eng, st, _, err := Recover(t.TempDir(), emptyDS("E"), emptyDS("I"), testEngineCfg(), Options{
		FsyncInterval:     DefaultFsyncInterval,
		SnapshotEveryRuns: -1,
		FS:                fs,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	defer st.crashClose()

	// The published result a checkpoint persists. The engine itself is never
	// fed: only what the store retains is under test.
	res := slim.Result{ThresholdMethod: "none", SpatialLevel: 12}
	for k := 0; k < links; k++ {
		res.Links = append(res.Links, slim.Link{
			U: slim.EntityID(fmt.Sprintf("e-%05d", k)), V: slim.EntityID(fmt.Sprintf("i-%05d", k)), Score: float64(k) + 0.5})
	}
	st.AfterRun(res, 1)

	rng := rand.New(rand.NewSource(18))
	var heap []int64 // live heap gained since the first checkpoint
	var base uint64
	var written []int64
	for b := 1; b <= batches; b++ {
		wire := EncodeWireBatch(TagE, randRecords(rng, perBatch))
		wait, err := st.LogEncoded(wire.Tag, wire.RecordBytes, wire.Recs)
		if err != nil {
			t.Fatal(err)
		}
		if err := wait(); err != nil {
			t.Fatal(err)
		}
		if b%every != 0 {
			continue
		}
		before := fs.bytes
		info, err := st.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if info.StreamedRecords != b*perBatch {
			t.Fatalf("checkpoint counts %d streamed records, want %d", info.StreamedRecords, b*perBatch)
		}
		written = append(written, fs.bytes-before)
		if len(heap) == 0 {
			base = testenv.LiveHeap()
		}
		heap = append(heap, testenv.Retained(base))
	}
	runtime.KeepAlive(st)

	first, last := 0, len(heap)-1
	t.Logf("live heap gained since the first checkpoint, after each: %v; bytes each wrote: %v", heap, written)
	if grown := heap[last]; grown > 256<<10 {
		t.Errorf("live heap grew %d B over %d records logged between the first and the last checkpoint (budget 256 KiB): the store retains records",
			grown, (batches-every)*perBatch)
	}
	// Same links, four times the records: the same file but for the width of
	// the sequence varint.
	if d := written[last] - written[first]; d < 0 || d > 8 {
		t.Errorf("checkpoint wrote %d B after %d batches and %d B after %d: its size depends on the records logged",
			written[first], every, written[last], batches)
	}
	if limit := int64(links*64 + 256); written[last] > limit {
		t.Errorf("checkpoint of %d links wrote %d B, want at most %d", links, written[last], limit)
	}
}

// TestStoreTypeHoldsNoRecords walks every type reachable from Store
// through the storage package's own declarations and fails on a field
// that could hold a record: the structural half of the footprint gate.
// Types of other packages are not entered — the engine the store points
// at buffers records by design, until its next relink.
func TestStoreTypeHoldsNoRecords(t *testing.T) {
	banned := map[reflect.Type]bool{
		reflect.TypeOf(slim.Record{}):  true,
		reflect.TypeOf(slim.Dataset{}): true,
	}
	store := reflect.TypeOf((*Store)(nil)).Elem()
	pkg := store.PkgPath()
	seen := map[reflect.Type]bool{}
	var walk func(path string, typ reflect.Type)
	walk = func(path string, typ reflect.Type) {
		if banned[typ] {
			t.Errorf("%s has type %s", path, typ)
			return
		}
		if seen[typ] {
			return
		}
		seen[typ] = true
		switch typ.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array, reflect.Chan:
			walk(path+"[]", typ.Elem())
		case reflect.Map:
			walk(path+"[key]", typ.Key())
			walk(path+"[]", typ.Elem())
		case reflect.Struct:
			if typ.PkgPath() != pkg && typ.PkgPath() != "" {
				return
			}
			for k := 0; k < typ.NumField(); k++ {
				walk(path+"."+typ.Field(k).Name, typ.Field(k).Type)
			}
		}
	}
	walk("Store", store)
	if !seen[reflect.TypeOf((*wal)(nil)).Elem()] || !seen[reflect.TypeOf(resultData{})] {
		t.Fatal("the walk did not reach the store's own WAL and result: it proves nothing")
	}
}

// TestRecoverAllocatesNoSeedCopy: a fresh Recover owns its seeds, so
// its seeds are quantized where they lie (the caller's records end up on
// the E7 grid), and time-ordered seeds (serve_fresh's layout, one run a
// record) are grouped where they lie: the boot allocates within 2 B a
// record of the same seeds already grouped, where grouping by copying
// costs 48 B a record more.
func TestRecoverAllocatesNoSeedCopy(t *testing.T) {
	if testenv.RaceEnabled {
		t.Skip("allocation budgets are meaningless under the race detector")
	}
	const margin = 2 // B a record
	ground := datagen.SM(datagen.SMConfig{NumUsers: 2000, Days: 26, AvgRecords: 60, Seed: 1})
	s := datagen.Sample(&ground, datagen.SampleConfig{Seed: 2})
	records := len(s.E.Records) + len(s.I.Records)
	boot := func(e, i []slim.Record) uint64 {
		t.Helper()
		seedE := slim.Dataset{Name: "E", Records: slices.Clone(e)}
		seedI := slim.Dataset{Name: "I", Records: slices.Clone(i)}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		eng, st, _, err := Recover(t.TempDir(), seedE, seedI, testEngineCfg(), Options{})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		st.crashClose()
		eng.Close()
		for _, r := range append(seedE.Records, seedI.Records...) {
			if QuantizeRecord(r) != r {
				t.Fatalf("seed record %+v is off the E7 grid: Recover quantized a copy", r)
			}
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	grouped := boot(s.E.Records, s.I.Records)
	timed := boot(timeOrdered(s.E.Records), timeOrdered(s.I.Records))
	t.Logf("%d seed records: a fresh Recover allocated %.1f MB grouped, %.1f MB time-ordered (%+.2f B a record)",
		records, float64(grouped)/1e6, float64(timed)/1e6, (float64(timed)-float64(grouped))/float64(records))
	if timed > grouped+margin*uint64(records) {
		t.Errorf("time-ordered seeds allocated %d B, the same seeds grouped %d B: more than %d B a record apart",
			timed, grouped, margin)
	}
}
