package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

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

// TestRecoverSeedsPersisted: the initial checkpoint makes the seed
// datasets durable at boot — a recovery with no seed flags still has
// them, even when the process crashed before ever checkpointing again.
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
	// An orphaned snapshot temp file (crash mid-checkpoint) must be swept
	// by recovery, not accumulated.
	orphan := filepath.Join(dir, snapPrefix+"1234.tmp")
	if err := os.WriteFile(orphan, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}

	eng2, st2, info, err := Recover(dir, emptyDS("E"), emptyDS("I"), testEngineCfg(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.crashClose()
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Errorf("orphaned temp file survived recovery: %v", err)
	}
	if !info.Recovered || info.SeedRecords != 80 {
		t.Fatalf("info = %+v, want recovered with 80 seed records", info)
	}
	res := eng2.Run()
	if len(res.Links) != 2 {
		t.Fatalf("seed pairs not recovered: %v", res.Links)
	}
}

// TestRecoverAfterCheckpoint: snapshot + WAL tail compose, and the
// checkpoint truncates the segments it covers.
func TestRecoverAfterCheckpoint(t *testing.T) {
	dir := t.TempDir()
	eng, st, _, err := Recover(dir, emptyDS("E"), emptyDS("I"), testEngineCfg(), Options{})
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
	if before.StreamedRecords != 40 {
		t.Fatalf("checkpoint covers %d streamed records, want 40", before.StreamedRecords)
	}
	// The WAL tail after the snapshot.
	ingestE(t, eng, st, mkRecs("e-b", 0.8, 20, 1_000_000))
	ingestI(t, eng, st, mkRecs("i-b", 0.8, 20, 1_000_030))
	st.crashClose()
	eng.Close()

	// The checkpoint truncated the segments it covers: replay from zero
	// must see only the two tail batches.
	if _, n, err := replayWAL(OSFS, dir, 0, nil); err != nil || n != 2 {
		t.Fatalf("post-checkpoint WAL holds %d batches (%v), want 2", n, err)
	}

	eng2, st2, info, err := Recover(dir, emptyDS("E"), emptyDS("I"), testEngineCfg(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.crashClose()
	if info.SnapshotSeq != before.LastSeq || info.ReplayedBatches != 2 {
		t.Fatalf("info = %+v, want snapshot seq %d + 2 replayed batches", info, before.LastSeq)
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
	if !info.HasResult || info.ReplayedBatches != 0 {
		t.Fatalf("info = %+v, want installed result and empty WAL tail", info)
	}
	got, _, ok := eng2.Result()
	if !ok || !reflect.DeepEqual(got.Links, res.Links) {
		t.Fatalf("installed result = %v, %v; want %v", got.Links, ok, res.Links)
	}
}

// TestRecoverTornWAL truncates the log mid-entry at every byte offset of
// the final frame: recovery must never fail and never lose a committed
// (fully written) batch.
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

	segs, err := listSegments(OSFS, dir)
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
		payload, r, err := nextFrame(rest)
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
		st2.crashClose()
		eng2.Close()
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
