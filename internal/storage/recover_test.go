package storage

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"slim"
	"slim/internal/engine"
)

func testEngineCfg() engine.Config {
	cfg := slim.Defaults()
	cfg.Threshold = slim.ThresholdNone // tiny instances: keep the full matching
	return engine.Config{Link: cfg, Debounce: time.Hour}
}

// mkRecs builds n clustered records for one entity (same shape as the
// engine tests, so e-x/i-x pairs link deterministically).
func mkRecs(e string, latOff float64, n int, start int64) []slim.Record {
	var out []slim.Record
	for k := 0; k < n; k++ {
		out = append(out, slim.NewRecord(slim.EntityID(e),
			37.5+latOff+float64(k%4)*0.06, -122.3, start+int64(k)*900))
	}
	return out
}

func emptyDS(name string) slim.Dataset { return slim.Dataset{Name: name} }

// ingestE acknowledges one first-dataset batch the way ingest.Plane.Submit
// does — log it, then buffer it — without the plane, which imports this
// package.
func ingestE(t *testing.T, eng *engine.Engine, st *Store, recs []slim.Record) {
	t.Helper()
	if err := st.LogE(recs); err != nil {
		t.Fatal(err)
	}
	eng.AddE(recs...)
}

// ingestI is ingestE for the second dataset.
func ingestI(t *testing.T, eng *engine.Engine, st *Store, recs []slim.Record) {
	t.Helper()
	if err := st.LogI(recs); err != nil {
		t.Fatal(err)
	}
	eng.AddI(recs...)
}

// loggedEntities counts, per entity id, the streamed records dir's log
// holds — what a recovery feeds its engine batch by batch, now that the
// store keeps no copy to inspect. It fails the test on a hole in the log.
func loggedEntities(t *testing.T, dir string) map[string]int {
	t.Helper()
	out := map[string]int{}
	if _, _, err := replayWAL(OSFS, dir, 0, func(b Batch) error {
		for _, r := range b.Recs {
			out[string(r.Entity)]++
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

// oracleLinks is the reference every recovery is held to: LinkDatasets,
// from scratch, over the records (on the codec grid) that were
// acknowledged.
func oracleLinks(t *testing.T, e, i []slim.Record) []slim.Link {
	t.Helper()
	res, err := slim.LinkDatasets(
		slim.Dataset{Name: "E", Records: quantizeAll(e)},
		slim.Dataset{Name: "I", Records: quantizeAll(i)},
		testEngineCfg().Link)
	if err != nil {
		t.Fatal(err)
	}
	return res.Links
}

// requireLinksBits asserts two link lists are bit-identical: same pairs in
// the same order with Float64bits-equal scores.
func requireLinksBits(t *testing.T, what string, got, want []slim.Link) {
	t.Helper()
	if !slices.EqualFunc(got, want, func(x, y slim.Link) bool {
		return x.U == y.U && x.V == y.V && math.Float64bits(x.Score) == math.Float64bits(y.Score)
	}) {
		t.Fatalf("%s: links differ from LinkDatasets over the acknowledged records:\n got %v\nwant %v", what, got, want)
	}
}

func copyDirInto(t *testing.T, src, dst string) {
	t.Helper()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		buf, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRecoverRoundTripAfterCrash: ingest without any checkpoint, crash,
// recover from the WAL alone, and get the identical linkage.
func TestRecoverRoundTripAfterCrash(t *testing.T) {
	dir := t.TempDir()
	eng, st, info, err := Recover(dir, emptyDS("E"), emptyDS("I"), testEngineCfg(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if info.Recovered {
		t.Fatal("fresh directory reported as recovered")
	}
	for i, off := range []float64{0, 0.8, 1.6} {
		e := string(rune('a' + i))
		ingestE(t, eng, st, mkRecs("e-"+e, off, 20, 1_000_000))
		ingestI(t, eng, st, mkRecs("i-"+e, off, 20, 1_000_030))
	}
	res := eng.Run()
	if len(res.Links) != 3 {
		t.Fatalf("pre-crash links = %d, want 3", len(res.Links))
	}
	st.crashClose() // no final checkpoint: recovery leans on the WAL
	eng.Close()

	eng2, st2, info2, err := Recover(dir, emptyDS("E"), emptyDS("I"), testEngineCfg(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.crashClose()
	if !info2.Recovered || info2.ReplayedBatches != 6 || info2.ReplayedRecords != 120 {
		t.Fatalf("recover info = %+v, want 6 batches / 120 records replayed", info2)
	}
	// The replay feed buffers what the WAL already holds and logs nothing:
	// every replayed record is pending exactly once and the log did not grow.
	if eng2.Pending() != info2.ReplayedRecords {
		t.Fatalf("recovered engine has %d records pending, want the %d replayed", eng2.Pending(), info2.ReplayedRecords)
	}
	if sst := st2.Stats(); sst.BatchesLogged != 0 || sst.WALBytesAppended != 0 || sst.NextSeq != 7 {
		t.Fatalf("recovery appended to the WAL: %+v", sst)
	}
	res2 := eng2.Run()
	if !reflect.DeepEqual(res2.Links, res.Links) {
		t.Fatalf("recovered links differ:\n got %v\nwant %v", res2.Links, res.Links)
	}
	est := eng2.Stats()
	if est.IngestedE != 60 || est.IngestedI != 60 {
		t.Errorf("recovered ingest counters %d/%d, want 60/60", est.IngestedE, est.IngestedI)
	}
}

// TestRecoverSeedsPersisted: the base written when the directory is
// initialised makes the seed datasets durable at boot — a recovery with no
// seed flags still has them, even when the process crashed before ever
// checkpointing.
func TestRecoverSeedsPersisted(t *testing.T) {
	dir := t.TempDir()
	seedE := slim.Dataset{Name: "E", Records: append(
		mkRecs("e-seed", 0, 20, 1_000_000), mkRecs("e-seed2", 0.8, 20, 1_000_000)...)}
	seedI := slim.Dataset{Name: "I", Records: append(
		mkRecs("i-seed", 0, 20, 1_000_030), mkRecs("i-seed2", 0.8, 20, 1_000_030)...)}
	_, st, _, err := Recover(dir, seedE, seedI, testEngineCfg(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	st.crashClose()
	// Orphaned temp files (a crash while the base or a result checkpoint
	// was being written) must be swept by recovery, not accumulated.
	orphans := []string{filepath.Join(dir, snapPrefix+"1234.tmp"), filepath.Join(dir, resultPrefix+"5678.tmp")}
	for _, orphan := range orphans {
		if err := os.WriteFile(orphan, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	eng2, st2, info, err := Recover(dir, emptyDS("E"), emptyDS("I"), testEngineCfg(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.crashClose()
	for _, orphan := range orphans {
		if _, err := os.Stat(orphan); !os.IsNotExist(err) {
			t.Errorf("orphaned temp file %s survived recovery: %v", orphan, err)
		}
	}
	if !info.Recovered || info.SeedRecords != 80 {
		t.Fatalf("info = %+v, want recovered with 80 seed records", info)
	}
	res := eng2.Run()
	if len(res.Links) != 2 {
		t.Fatalf("seed pairs not recovered: %v", res.Links)
	}
}

// TestRecoverLoadsSeedsOnlyForAFreshDirectory: Options.Seeds is called
// once, by the boot that initialises the directory, and its seeds become
// the base. A restart never calls it, so a loader that would fail (a seed
// file gone since) does not stop the boot from the base; the same loader
// fails a boot that would have to use it.
func TestRecoverLoadsSeedsOnlyForAFreshDirectory(t *testing.T) {
	dir := t.TempDir()
	calls := 0
	seeds := func() (slim.Dataset, slim.Dataset, error) {
		calls++
		return slim.Dataset{Name: "E", Records: append(mkRecs("e-seed", 0, 20, 1_000_000), mkRecs("e-seed2", 0.8, 20, 1_000_000)...)},
			slim.Dataset{Name: "I", Records: append(mkRecs("i-seed", 0, 20, 1_000_030), mkRecs("i-seed2", 0.8, 20, 1_000_030)...)}, nil
	}
	_, st, info, err := Recover(dir, emptyDS("E"), emptyDS("I"), testEngineCfg(), Options{Seeds: seeds})
	if err != nil {
		t.Fatal(err)
	}
	st.crashClose()
	if calls != 1 || info.Recovered || info.SeedRecords != 80 {
		t.Fatalf("fresh boot: %d loader calls, info %+v; want 1 call and 80 seed records", calls, info)
	}

	errUnreadable := errors.New("seed file unreadable")
	unreadable := func() (slim.Dataset, slim.Dataset, error) {
		calls++
		return slim.Dataset{}, slim.Dataset{}, errUnreadable
	}
	eng2, st2, info, err := Recover(dir, emptyDS("E"), emptyDS("I"), testEngineCfg(), Options{Seeds: unreadable})
	if err != nil {
		t.Fatalf("restart with an unreadable seed: %v", err)
	}
	defer st2.crashClose()
	if calls != 1 || !info.Recovered || info.SeedRecords != 80 {
		t.Fatalf("restart: %d loader calls, info %+v; want no further call and 80 seed records", calls, info)
	}
	if res := eng2.Run(); len(res.Links) != 2 {
		t.Fatalf("seed pairs not recovered from the base: %v", res.Links)
	}

	if _, _, _, err := Recover(t.TempDir(), emptyDS("E"), emptyDS("I"), testEngineCfg(), Options{Seeds: unreadable}); !errors.Is(err, errUnreadable) {
		t.Fatalf("fresh boot with an unreadable seed returned %v, want %v", err, errUnreadable)
	}
}

// timeOrdered returns the records sorted by time, then id: serve_fresh's
// seed layout, one run a record.
func timeOrdered(recs []slim.Record) []slim.Record {
	recs = slices.Clone(recs)
	slices.SortStableFunc(recs, func(a, b slim.Record) int {
		return cmp.Or(cmp.Compare(a.Unix, b.Unix), cmp.Compare(a.Entity, b.Entity))
	})
	return recs
}

// TestRecoverTimeOrderedSeeds: seeds in time order, every entity split
// into one run a record, are grouped in place before the base is
// written, so the base holds one sorted run per entity (a restart's build
// indexes the decoded seeds without a copy). The fresh boot and a restart
// from that base both link Float64bits-equal to LinkDatasets over the
// seeds in their original order.
func TestRecoverTimeOrderedSeeds(t *testing.T) {
	var e, i []slim.Record
	for k := 0; k < 6; k++ {
		e = append(e, mkRecs(fmt.Sprintf("e-%d", k), float64(k)*0.3, 12, 1_000_000+int64(k))...)
		i = append(i, mkRecs(fmt.Sprintf("i-%d", k), float64(k)*0.3, 12, 1_000_030+int64(k))...)
	}
	e, i = timeOrdered(e), timeOrdered(i)
	want := oracleLinks(t, e, i)
	if len(want) != 6 {
		t.Fatalf("oracle links %d of the 6 seeded pairs: %v", len(want), want)
	}
	dir := t.TempDir()
	eng, st, _, err := Recover(dir, slim.Dataset{Name: "E", Records: slices.Clone(e)},
		slim.Dataset{Name: "I", Records: slices.Clone(i)}, testEngineCfg(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	requireLinksBits(t, "fresh boot", eng.Run().Links, want)
	st.crashClose()
	eng.Close()

	base, err := loadNewestSnapshot(OSFS, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []slim.Dataset{base.seedE, base.seedI} {
		if g := seed.GroupByEntity(-1); len(g.Entities) != 6 || unsafe.SliceData(g.Records) != unsafe.SliceData(seed.Records) {
			t.Fatalf("base seeds %s are not one sorted run per entity: %v", seed.Name, seed.Records)
		}
	}
	eng2, st2, info, err := Recover(dir, emptyDS("E"), emptyDS("I"), testEngineCfg(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.crashClose()
	if !info.Recovered || info.SeedRecords != len(e)+len(i) {
		t.Fatalf("info = %+v, want recovered with %d seed records", info, len(e)+len(i))
	}
	requireLinksBits(t, "restart", eng2.Run().Links, want)
}

// TestRecoverAfterCheckpoint: a checkpoint writes the result and nothing
// else — the base is not rewritten and no segment is truncated, so the log
// still holds every batch — and a result checkpointed before later
// batches were logged is not installed.
func TestRecoverAfterCheckpoint(t *testing.T) {
	dir := t.TempDir()
	eng, st, _, err := Recover(dir, emptyDS("E"), emptyDS("I"), testEngineCfg(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	basePath := filepath.Join(dir, snapName(0))
	baseBefore, err := os.ReadFile(basePath)
	if err != nil {
		t.Fatal(err)
	}
	ingestE(t, eng, st, mkRecs("e-a", 0, 20, 1_000_000))
	ingestI(t, eng, st, mkRecs("i-a", 0, 20, 1_000_030))
	eng.Run()
	before, err := st.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if before.LastSeq != 2 || before.StreamedRecords != 40 || filepath.Base(before.Path) != resultName(2) {
		t.Fatalf("checkpoint = %+v, want %s at seq 2 counting 40 streamed records", before, resultName(2))
	}
	// Batches logged after the checkpoint.
	ingestE(t, eng, st, mkRecs("e-b", 0.8, 20, 1_000_000))
	ingestI(t, eng, st, mkRecs("i-b", 0.8, 20, 1_000_030))
	st.crashClose()
	eng.Close()

	if _, n, err := replayWAL(OSFS, dir, 0, nil); err != nil || n != 4 {
		t.Fatalf("post-checkpoint WAL holds %d batches (%v), want all 4", n, err)
	}
	if baseAfter, err := os.ReadFile(basePath); err != nil || !bytes.Equal(baseAfter, baseBefore) {
		t.Fatalf("the checkpoint touched the base file (%v)", err)
	}

	eng2, st2, info, err := Recover(dir, emptyDS("E"), emptyDS("I"), testEngineCfg(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.crashClose()
	if info.SnapshotSeq != 0 || info.ReplayedBatches != 4 || info.StreamedRecords != 80 || info.HasResult {
		t.Fatalf("info = %+v, want base seq 0 + 4 replayed batches and the seq-2 result discarded", info)
	}
	res := eng2.Run()
	if len(res.Links) != 2 {
		t.Fatalf("links after recovery = %v, want both pairs", res.Links)
	}
}

// TestRecoverInstallsResult: after a clean shutdown the persisted result
// serves queries immediately, before any fresh relink.
func TestRecoverInstallsResult(t *testing.T) {
	dir := t.TempDir()
	eng, st, _, err := Recover(dir, emptyDS("E"), emptyDS("I"), testEngineCfg(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, off := range []float64{0, 0.8} {
		e := string(rune('a' + i))
		ingestE(t, eng, st, mkRecs("e-"+e, off, 20, 1_000_000))
		ingestI(t, eng, st, mkRecs("i-"+e, off, 20, 1_000_030))
	}
	res := eng.Run()
	if len(res.Links) != 2 {
		t.Fatalf("pre-shutdown links = %v, want 2", res.Links)
	}
	eng.Close()
	if err := st.Close(); err != nil { // clean close: final checkpoint captures the result
		t.Fatal(err)
	}
	if err := st.Close(); err != nil { // idempotent
		t.Fatal(err)
	}

	eng2, st2, info, err := Recover(dir, emptyDS("E"), emptyDS("I"), testEngineCfg(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.crashClose()
	if !info.HasResult || info.ReplayedBatches != 4 {
		t.Fatalf("info = %+v, want the whole log replayed and the result checkpointed at its end installed", info)
	}
	got, _, ok := eng2.Result()
	if !ok || !reflect.DeepEqual(got.Links, res.Links) {
		t.Fatalf("installed result = %v, %v; want %v", got.Links, ok, res.Links)
	}
}

// TestRecoverTornWAL truncates the log mid-entry at every byte offset of
// the final frame: recovery must never fail and never lose a committed
// (fully written) batch. The next generation then continues in a fresh
// segment under the torn batch's sequence number, and a third recovery
// reads torn segment and successor as one contiguous log.
func TestRecoverTornWAL(t *testing.T) {
	dir := t.TempDir()
	eng, st, _, err := Recover(dir, emptyDS("E"), emptyDS("I"), testEngineCfg(), Options{FsyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	const batches, perBatch = 10, 4
	for i := 0; i < batches; i++ {
		recs := mkRecs(fmt.Sprintf("e-%d", i), float64(i)*0.5, perBatch, 1_000_000)
		if i%2 == 0 {
			ingestE(t, eng, st, recs)
		} else {
			ingestI(t, eng, st, recs)
		}
	}
	st.crashClose()
	eng.Close()

	segs, err := listNumbered(OSFS, dir, segPrefix, segSuffix)
	if err != nil || len(segs) == 0 {
		t.Fatalf("segments: %v, %v", segs, err)
	}
	last := segs[len(segs)-1]
	buf, err := os.ReadFile(last.path)
	if err != nil {
		t.Fatal(err)
	}
	// Locate the final frame's start offset by walking the frames.
	var offsets []int
	for off, rest := 0, buf; len(rest) > 0; {
		payload, r, err := NextFrame(rest)
		if err != nil {
			t.Fatalf("healthy log has torn frame at %d", off)
		}
		offsets = append(offsets, off)
		off += frameHeaderLen + len(payload)
		rest = r
	}
	if len(offsets) != batches {
		t.Fatalf("found %d frames, want %d", len(offsets), batches)
	}
	lastStart := offsets[batches-1]

	for cut := lastStart; cut < len(buf); cut++ {
		tdir := t.TempDir()
		copyDirInto(t, dir, tdir)
		if err := os.WriteFile(filepath.Join(tdir, filepath.Base(last.path)), buf[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		eng2, st2, info, err := Recover(tdir, emptyDS("E"), emptyDS("I"), testEngineCfg(), Options{FsyncInterval: -1})
		if err != nil {
			t.Fatalf("cut=%d: recover failed: %v", cut, err)
		}
		if info.ReplayedBatches != batches-1 || info.ReplayedRecords != (batches-1)*perBatch {
			t.Fatalf("cut=%d: replayed %d batches / %d records, want %d / %d (committed prefix)",
				cut, info.ReplayedBatches, info.ReplayedRecords, batches-1, (batches-1)*perBatch)
		}
		ingestE(t, eng2, st2, mkRecs("e-next", 7, perBatch, 1_000_000))
		st2.crashClose()
		eng2.Close()
		eng3, st3, info, err := Recover(tdir, emptyDS("E"), emptyDS("I"), testEngineCfg(), Options{FsyncInterval: -1})
		if err != nil {
			t.Fatalf("cut=%d: recovering the next generation failed: %v", cut, err)
		}
		if info.ReplayedBatches != batches || st3.Stats().NextSeq != batches+1 {
			t.Fatalf("cut=%d: next generation replayed %d batches, next seq %d; want %d and %d",
				cut, info.ReplayedBatches, st3.Stats().NextSeq, batches, batches+1)
		}
		st3.crashClose()
		eng3.Close()
	}

	// The untruncated log replays every batch.
	eng3, st3, info, err := Recover(dir, emptyDS("E"), emptyDS("I"), testEngineCfg(), Options{FsyncInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	if info.ReplayedBatches != batches {
		t.Fatalf("full replay = %d batches, want %d", info.ReplayedBatches, batches)
	}
	st3.crashClose()
	eng3.Close()
}

// pairRecs returns the k-th test entity pair's records, first and second
// dataset: 20 records each, so neither side is ever below MinRecords.
func pairRecs(k int) (e, i []slim.Record) {
	id := string(rune('a' + k))
	return mkRecs("e-"+id, float64(k)*0.8, 20, 1_000_000), mkRecs("i-"+id, float64(k)*0.8, 20, 1_000_030)
}

// oraclePairs is oracleLinks over the first n test pairs.
func oraclePairs(t *testing.T, n int) []slim.Link {
	t.Helper()
	var e, i []slim.Record
	for k := 0; k < n; k++ {
		pe, pi := pairRecs(k)
		e, i = append(e, pe...), append(i, pi...)
	}
	return oracleLinks(t, e, i)
}

// TestRecoverFailsStopOnLogHole: a frame that stops checksumming in the
// middle of the log hides the rest of its segment. With every streamed
// record living in the log for the life of the directory that is
// corruption of acknowledged data, not a torn tail: recovery must refuse,
// naming the damaged segment and the missing sequence range.
func TestRecoverFailsStopOnLogHole(t *testing.T) {
	dir := t.TempDir()
	opts := Options{FsyncInterval: -1, SegmentBytes: 1 << 10}
	eng, st, _, err := Recover(dir, emptyDS("E"), emptyDS("I"), testEngineCfg(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 6; k++ {
		e, i := pairRecs(k)
		ingestE(t, eng, st, e)
		ingestI(t, eng, st, i)
	}
	st.crashClose()
	eng.Close()
	segs, err := listNumbered(OSFS, dir, segPrefix, segSuffix)
	if err != nil || len(segs) < 3 {
		t.Fatalf("segments = %v (%v), want at least 3", segs, err)
	}
	buf, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	first, _, err := NextFrame(buf)
	if err != nil || len(buf) <= 2*(frameHeaderLen+len(first)) {
		t.Fatalf("segment 1 holds fewer than three frames (%v)", err)
	}
	// One bit, inside the second frame's payload.
	buf[frameHeaderLen+len(first)+frameHeaderLen+len(first)/2] ^= 0x01
	if err := os.WriteFile(segs[0].path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	_, _, _, err = Recover(dir, emptyDS("E"), emptyDS("I"), testEngineCfg(), opts)
	if err == nil {
		t.Fatal("recovery replayed around a hole in the log")
	}
	if !errors.Is(err, errCorrupt) || !strings.Contains(err.Error(), filepath.Base(segs[0].path)) ||
		!strings.Contains(err.Error(), "batches 2-") {
		t.Fatalf("error %q does not name the damaged segment %s and the missing range", err, filepath.Base(segs[0].path))
	}
}

// TestRecoverTornResult cuts the result checkpoint at every byte: a
// result that does not read back whole is worth exactly as much as none.
// Recovery never fails on it and never serves anything but what
// LinkDatasets yields over the acknowledged records.
func TestRecoverTornResult(t *testing.T) {
	dir := t.TempDir()
	eng, st, _, err := Recover(dir, emptyDS("E"), emptyDS("I"), testEngineCfg(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		e, i := pairRecs(k)
		ingestE(t, eng, st, e)
		ingestI(t, eng, st, i)
	}
	eng.Run()
	eng.Close()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	want := oraclePairs(t, 3)
	if len(want) != 3 {
		t.Fatalf("oracle links = %v, want 3", want)
	}
	resPath := filepath.Join(dir, resultName(6))
	buf, err := os.ReadFile(resPath)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut <= len(buf); cut++ {
		tdir := t.TempDir()
		copyDirInto(t, dir, tdir)
		if err := os.WriteFile(filepath.Join(tdir, resultName(6)), buf[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		eng2, st2, info, err := Recover(tdir, emptyDS("E"), emptyDS("I"), testEngineCfg(), Options{})
		if err != nil {
			t.Fatalf("cut=%d: recover failed: %v", cut, err)
		}
		if whole := cut == len(buf); info.HasResult != whole {
			t.Fatalf("cut=%d of %d: HasResult = %v", cut, len(buf), info.HasResult)
		}
		if info.HasResult {
			res, version, _ := eng2.Result()
			if version != 1 {
				t.Fatalf("installed version = %d, want 1", version)
			}
			requireLinksBits(t, "installed result", res.Links, want)
		}
		requireLinksBits(t, fmt.Sprintf("cut=%d: first relink", cut), eng2.Run().Links, want)
		st2.crashClose()
		eng2.Close()
	}
}

// TestRecoverDiscardsResultAheadOfLog: under -fsync-interval <0 a host
// crash can lose the log's tail while the (fsynced) result checkpoint
// survives. A result from a sequence the log no longer reaches must not be
// served, and must not linger either: the sequences it claims are assigned
// again, to different batches.
func TestRecoverDiscardsResultAheadOfLog(t *testing.T) {
	dir := t.TempDir()
	opts := Options{FsyncInterval: -1}
	eng, st, _, err := Recover(dir, emptyDS("E"), emptyDS("I"), testEngineCfg(), opts)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 3; k++ {
		e, i := pairRecs(k)
		ingestE(t, eng, st, e)
		ingestI(t, eng, st, i)
	}
	eng.Run()
	if _, err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st.crashClose()
	eng.Close()

	// Lose the last pair's two batches off the end of the segment.
	segs, err := listNumbered(OSFS, dir, segPrefix, segSuffix)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v (%v)", segs, err)
	}
	buf, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	keep := 0
	for n, rest := 0, buf; n < 4; n++ {
		payload, r, err := NextFrame(rest)
		if err != nil {
			t.Fatal(err)
		}
		keep += frameHeaderLen + len(payload)
		rest = r
	}
	if err := os.Truncate(segs[0].path, int64(keep)); err != nil {
		t.Fatal(err)
	}

	eng2, st2, info, err := Recover(dir, emptyDS("E"), emptyDS("I"), testEngineCfg(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if info.ReplayedBatches != 4 || info.HasResult {
		t.Fatalf("info = %+v, want 4 batches and the seq-6 result discarded", info)
	}
	if _, err := os.Stat(filepath.Join(dir, resultName(6))); !os.IsNotExist(err) {
		t.Fatalf("result ahead of the log survived recovery: %v", err)
	}
	requireLinksBits(t, "after the lost tail", eng2.Run().Links, oraclePairs(t, 2))
	// Sequences 5 and 6 now go to a different pair; a crash right there must
	// not find the old seq-6 result.
	e, i := pairRecs(3)
	ingestE(t, eng2, st2, e)
	ingestI(t, eng2, st2, i)
	st2.crashClose()
	eng2.Close()
	eng3, st3, info, err := Recover(dir, emptyDS("E"), emptyDS("I"), testEngineCfg(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer eng3.Close()
	defer st3.crashClose()
	if info.ReplayedBatches != 6 || info.HasResult {
		t.Fatalf("info = %+v, want 6 batches and no result", info)
	}
}

// TestRecoverOlderReleaseDirectory builds a directory the way the release
// that compacted the log into full snapshots left one — a snapshot at seq
// N holding the seeds, both stream sections and a result, and segments
// only above N — and recovers it with no migration step: the snapshot is
// the base, read as it is and never rewritten.
func TestRecoverOlderReleaseDirectory(t *testing.T) {
	seedE, seedI := pairRecs(0)
	streamE, streamI := pairRecs(1)
	build := func(t *testing.T, withTail bool) (dir string, base []byte) {
		dir = t.TempDir()
		old := &snapshotData{
			lastSeq: 2,
			seedE:   slim.Dataset{Name: "E", Records: quantizeAll(seedE)},
			seedI:   slim.Dataset{Name: "I", Records: quantizeAll(seedI)},
			streamE: quantizeAll(streamE),
			streamI: quantizeAll(streamI),
			result:  &resultData{links: oraclePairs(t, 2), method: "none", spatialLevel: 12, version: 5},
		}
		path, err := writeSnapshot(OSFS, dir, old)
		if err != nil {
			t.Fatal(err)
		}
		// That release rotated at every checkpoint and removed the covered
		// segments, so the log starts at some later index with batch N+1.
		w, err := openWAL(OSFS, dir, 4, 0, -1, walMetrics{})
		if err != nil {
			t.Fatal(err)
		}
		if withTail {
			e, i := pairRecs(2)
			appendBatches(t, w, []Batch{{Seq: 3, Tag: TagE, Recs: e}, {Seq: 4, Tag: TagI, Recs: i}})
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		base, err = os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return dir, base
	}
	requireBaseUntouched := func(t *testing.T, dir string, base []byte) {
		t.Helper()
		if now, err := os.ReadFile(filepath.Join(dir, snapName(2))); err != nil || !bytes.Equal(now, base) {
			t.Fatalf("the base file changed (%v)", err)
		}
		if snaps, err := listNumbered(OSFS, dir, snapPrefix, snapSuffix); err != nil || len(snaps) != 1 {
			t.Fatalf("base files = %v (%v), want the original alone", snaps, err)
		}
	}

	t.Run("snapshot alone", func(t *testing.T) {
		dir, base := build(t, false)
		eng, st, info, err := Recover(dir, emptyDS("E"), emptyDS("I"), testEngineCfg(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		defer st.crashClose()
		if info.SnapshotSeq != 2 || info.ReplayedBatches != 0 || info.SeedRecords != 40 || info.StreamedRecords != 40 || !info.HasResult {
			t.Fatalf("info = %+v, want base seq 2, 40+40 records and the base's own result installed", info)
		}
		res, version, _ := eng.Result()
		if version != 5 {
			t.Fatalf("installed version = %d, want 5", version)
		}
		requireLinksBits(t, "installed result", res.Links, oraclePairs(t, 2))
		requireLinksBits(t, "first relink", eng.Run().Links, oraclePairs(t, 2))
		if st.Stats().NextSeq != 3 {
			t.Fatalf("next seq = %d, want 3", st.Stats().NextSeq)
		}
		requireBaseUntouched(t, dir, base)
	})

	t.Run("snapshot and segments above it", func(t *testing.T) {
		dir, base := build(t, true)
		eng, st, info, err := Recover(dir, emptyDS("E"), emptyDS("I"), testEngineCfg(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if info.SnapshotSeq != 2 || info.ReplayedBatches != 2 || info.StreamedRecords != 80 || info.HasResult {
			t.Fatalf("info = %+v, want base seq 2 + 2 replayed batches and the base's seq-2 result discarded", info)
		}
		want := oraclePairs(t, 3)
		requireLinksBits(t, "first relink", eng.Run().Links, want)
		// One checkpoint later the base is byte for byte what it was, and the
		// result lives beside it.
		cp, err := st.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if cp.LastSeq != 4 || cp.SeedRecords != 40 || cp.StreamedRecords != 80 {
			t.Fatalf("checkpoint = %+v, want seq 4 over 40 seed + 80 streamed records", cp)
		}
		requireBaseUntouched(t, dir, base)
		st.crashClose()
		eng.Close()

		eng2, st2, info, err := Recover(dir, emptyDS("E"), emptyDS("I"), testEngineCfg(), Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer eng2.Close()
		defer st2.crashClose()
		if info.SnapshotSeq != 2 || info.ReplayedBatches != 2 || !info.HasResult {
			t.Fatalf("second recovery info = %+v, want the seq-4 result checkpoint installed", info)
		}
		res, _, _ := eng2.Result()
		requireLinksBits(t, "installed result", res.Links, want)
		requireLinksBits(t, "second recovery's relink", eng2.Run().Links, want)
		requireBaseUntouched(t, dir, base)
	})
}

// TestStoreAutoCheckpoint: the post-relink trigger checkpoints without
// any manual call.
func TestStoreAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	eng, st, _, err := Recover(dir, emptyDS("E"), emptyDS("I"), testEngineCfg(),
		Options{SnapshotEveryRuns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer st.crashClose()
	if got := st.Stats().Snapshots; got != 1 { // the initial checkpoint
		t.Fatalf("snapshots after init = %d, want 1", got)
	}
	ingestE(t, eng, st, mkRecs("e-a", 0, 20, 1_000_000))
	ingestI(t, eng, st, mkRecs("i-a", 0, 20, 1_000_030))
	eng.Run()
	// The auto-checkpoint is asynchronous (it must not stall the relink
	// publish path): poll for it.
	deadline := time.Now().Add(5 * time.Second)
	for st.Stats().Snapshots != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("snapshots after run = %d, want 2 (auto trigger)", st.Stats().Snapshots)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if seq := st.Stats().LastSnapshotSeq; seq != 2 {
		t.Fatalf("last snapshot seq = %d, want 2", seq)
	}
	// A log after the store is closed must be rejected, not silently
	// dropped (Plane.Submit buffers nothing on a log error).
	st.crashClose()
	if err := st.LogE(mkRecs("e-late", 1, 5, 1_000_000)); !errors.Is(err, ErrClosed) {
		t.Fatalf("LogE after store close = %v, want ErrClosed", err)
	}
}

// crashClose abandons the store without a final checkpoint — test
// helper simulating a crash (the WAL file is closed so tests on
// platforms with mandatory locks can truncate it, but no result is
// persisted).
func (s *Store) crashClose() {
	s.mu.Lock()
	s.closed = true
	w := s.wal
	s.mu.Unlock()
	s.stopOnce.Do(func() { close(s.stopReopen) })
	_ = w.Close()
}
