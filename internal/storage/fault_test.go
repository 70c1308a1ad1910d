package storage

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

	"slim"
	"slim/internal/engine"
	"slim/internal/fault"
)

// faultOpts is the baseline Options for the fault tests: inline fsync
// (an ack is a durability promise the tests can hold the store to), a
// fast reopen loop, and no automatic checkpoints (the tests place their
// own so call counts stay deterministic).
func faultOpts(fs FS) Options {
	return Options{
		FsyncInterval:     0,
		SnapshotEveryRuns: -1,
		ReopenBackoff:     time.Millisecond,
		ReopenMaxBackoff:  20 * time.Millisecond,
		FS:                fs,
	}
}

func waitHealthy(t *testing.T, st *Store) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for st.Degraded() {
		if time.Now().After(deadline) {
			_, cause, _ := st.Health()
			t.Fatalf("store did not recover from degraded mode (cause: %s)", cause)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestFaultFSQuietParity pins the seam refactor: the byte stream an
// unarmed FaultFS lets through is identical to OSFS's — same file
// names, same contents, for a workload covering appends, rotation, a
// mid-cycle checkpoint, and a clean close.
func TestFaultFSQuietParity(t *testing.T) {
	run := func(dir string, fs FS) {
		t.Helper()
		opts := faultOpts(fs)
		opts.SegmentBytes = 4 << 10 // tiny segments force rotation
		eng, st, _, err := Recover(dir, emptyDS("E"), emptyDS("I"), testEngineCfg(), opts)
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		for i := 0; i < 24; i++ {
			recs := mkRecs(fmt.Sprintf("e-%d", i), float64(i)*0.2, 8, 1_000_000)
			if err := st.LogE(recs); err != nil {
				t.Fatal(err)
			}
			if i == 11 {
				if _, err := st.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}
	dirA, dirB := t.TempDir(), t.TempDir()
	run(dirA, OSFS)
	run(dirB, NewFaultFS(OSFS, fault.New()))

	entriesA, err := os.ReadDir(dirA)
	if err != nil {
		t.Fatal(err)
	}
	entriesB, err := os.ReadDir(dirB)
	if err != nil {
		t.Fatal(err)
	}
	if len(entriesA) != len(entriesB) {
		t.Fatalf("file counts differ: OSFS %d vs FaultFS %d", len(entriesA), len(entriesB))
	}
	for i, ea := range entriesA {
		eb := entriesB[i]
		if ea.Name() != eb.Name() {
			t.Fatalf("file %d: name %q vs %q", i, ea.Name(), eb.Name())
		}
		bufA, err := os.ReadFile(filepath.Join(dirA, ea.Name()))
		if err != nil {
			t.Fatal(err)
		}
		bufB, err := os.ReadFile(filepath.Join(dirB, eb.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if string(bufA) != string(bufB) {
			t.Fatalf("%s: contents differ (%d vs %d bytes)", ea.Name(), len(bufA), len(bufB))
		}
	}
}

// TestDegradedInlineFailedAppendNotRelogged is the duplicate-sequence
// hazard check: under inline fsync a failed append never consumed its
// sequence number, so its bytes must be truncated away — not re-logged —
// or the next acknowledged batch (which reuses the sequence) would
// collide with it on replay.
func TestDegradedInlineFailedAppendNotRelogged(t *testing.T) {
	inj := fault.New()
	dir := t.TempDir()
	eng, st, _, err := Recover(dir, emptyDS("E"), emptyDS("I"), testEngineCfg(), faultOpts(NewFaultFS(OSFS, inj)))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	if err := st.LogE(mkRecs("e-acked", 0, 4, 1_000_000)); err != nil {
		t.Fatal(err)
	}
	inj.Arm(SiteFSSync, fault.Rule{Count: 1})
	err = st.LogE(mkRecs("e-failed", 0.5, 4, 1_000_000))
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("failed-fsync append error = %v, want ErrDegraded", err)
	}
	if !st.Degraded() {
		t.Fatal("store not degraded after fsync failure")
	}
	if _, err := st.Checkpoint(); !errors.Is(err, ErrDegraded) {
		t.Fatalf("degraded checkpoint error = %v, want ErrDegraded", err)
	}
	if err := st.LogE(mkRecs("e-while-degraded", 1, 4, 1_000_000)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("degraded append error = %v, want ErrDegraded", err)
	}
	waitHealthy(t, st)
	if err := st.LogE(mkRecs("e-post", 1.5, 4, 1_000_000)); err != nil {
		t.Fatalf("post-recovery append failed: %v", err)
	}
	st.crashClose()

	eng2, st2, _, err := Recover(dir, emptyDS("E"), emptyDS("I"), testEngineCfg(), Options{})
	if err != nil {
		t.Fatalf("recovery after degraded episode failed: %v", err)
	}
	defer st2.crashClose()
	have := loggedEntities(t, dir)
	if have["e-acked"] != 4 || have["e-post"] != 4 {
		t.Fatalf("acked batches lost: %v", have)
	}
	if have["e-failed"] != 0 || have["e-while-degraded"] != 0 {
		t.Fatalf("nacked batches surfaced after recovery: %v", have)
	}
	if eng2.Pending() != 8 {
		t.Fatalf("recovered engine holds %d records, want the 8 acked", eng2.Pending())
	}
}

// TestDegradedGroupCommitRelogsNackedBatch: under group commit a failed
// batched fsync nacks the caller but the batch already consumed its
// sequence number. The reopen must re-log it exactly once (old copy
// truncated away, one fresh copy under the same number, so the log has
// no hole) and buffer it into the engine Recover built — the caller,
// having been nacked, never did.
func TestDegradedGroupCommitRelogsNackedBatch(t *testing.T) {
	inj := fault.New()
	opts := faultOpts(NewFaultFS(OSFS, inj))
	opts.FsyncInterval = time.Millisecond
	dir := t.TempDir()
	eng, st, _, err := Recover(dir, emptyDS("E"), emptyDS("I"), testEngineCfg(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	ingestE(t, eng, st, mkRecs("e-acked", 0, 4, 1_000_000))
	inj.Arm(SiteFSSync, fault.Rule{Count: 1})
	err = st.LogE(mkRecs("e-nacked", 0.5, 4, 1_000_000))
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("failed group-commit error = %v, want ErrDegraded", err)
	}
	if eng.Pending() != 4 {
		t.Fatalf("pending = %d before the reopen, want only the 4 acked records", eng.Pending())
	}
	waitHealthy(t, st)
	if eng.Pending() != 8 {
		t.Fatalf("pending = %d once healthy, want 8 (acked + re-logged, each once)", eng.Pending())
	}
	ingestE(t, eng, st, mkRecs("e-post", 1, 4, 1_000_000))
	st.crashClose()

	eng2, st2, _, err := Recover(dir, emptyDS("E"), emptyDS("I"), testEngineCfg(), Options{})
	if err != nil {
		t.Fatalf("recovery after degraded episode failed: %v", err)
	}
	defer eng2.Close()
	defer st2.crashClose()
	have := loggedEntities(t, dir)
	for _, id := range []string{"e-acked", "e-nacked", "e-post"} {
		if have[id] != 4 {
			t.Errorf("%s recovered %d times, want exactly 4 records once", id, have[id])
		}
	}
	// The live engine and the recovered one hold the same record set.
	if eng2.Pending() != eng.Pending() {
		t.Fatalf("recovered engine holds %d records, live engine %d", eng2.Pending(), eng.Pending())
	}
}

// TestReopenRetriesUntilFaultClears: the reopen loop must survive its
// own failures — each attempt that dies (here: the fresh segment's
// create fails three times) is counted, backed off from, and retried
// until the fault clears.
func TestReopenRetriesUntilFaultClears(t *testing.T) {
	inj := fault.New()
	dir := t.TempDir()
	eng, st, _, err := Recover(dir, emptyDS("E"), emptyDS("I"), testEngineCfg(), faultOpts(NewFaultFS(OSFS, inj)))
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	// The next three OpenFile calls are the reopen attempts' fresh
	// segments; the fsync fault below triggers the degraded episode.
	inj.Arm(SiteFSOpenFile, fault.Rule{Count: 3})
	inj.Arm(SiteFSSync, fault.Rule{Count: 1})
	if err := st.LogE(mkRecs("e-x", 0, 4, 1_000_000)); !errors.Is(err, ErrDegraded) {
		t.Fatalf("append error = %v, want ErrDegraded", err)
	}
	waitHealthy(t, st)
	if got := st.Stats().ReopenRetries; got < 4 {
		t.Fatalf("reopen retries = %d, want >= 4 (three failed attempts + success)", got)
	}
	if stats := st.Stats(); stats.Health != "healthy" || stats.DegradedCause != "" {
		t.Fatalf("post-recovery stats health = %q cause %q", stats.Health, stats.DegradedCause)
	}
	if err := st.LogE(mkRecs("e-y", 0.5, 4, 1_000_000)); err != nil {
		t.Fatalf("post-recovery append failed: %v", err)
	}
	st.crashClose()
}

// TestFSFailureSweep fails every FS call site at every call index of a
// fixed workload and asserts the two invariants the storage layer
// promises under arbitrary single I/O faults: the process never panics,
// and a later fault-free recovery of the directory succeeds and links
// exactly the batches the workload acked — Float64bits-identical to
// LinkDatasets over them, both in the result it installs (if the fault
// left one that describes the whole log) and in its first relink.
//
// The workload covers the whole I/O footprint: it boots against a
// pre-seeded directory (base load + WAL replay reads), appends with a
// relink and a mid-cycle checkpoint and segment rotation, provokes one
// degraded episode via a separate always-armed episode injector (so the
// quarantine truncate + reopen path is part of the swept surface), relinks
// and closes cleanly — so every FS call of a checkpoint (temp create,
// write, fsync, close, rename, directory fsync, listing, removal of the
// superseded file, stat) is failed once.
func TestFSFailureSweep(t *testing.T) {
	const entities = 8
	eRecs := func(i int) []slim.Record { return mkRecs(fmt.Sprintf("e-%d", i), float64(i)*0.3, 6, 1_000_000) }
	iRecs := func(i int) []slim.Record { return mkRecs(fmt.Sprintf("i-%d", i), float64(i)*0.3, 6, 1_000_030) }

	// seed populates dir fault-free so the workload's boot replays real
	// state: the second-dataset partner of every entity the workload will
	// stream, so each batch it gets acked adds a link.
	seed := func(dir string) {
		eng, st, _, err := Recover(dir, emptyDS("E"), emptyDS("I"), testEngineCfg(), faultOpts(OSFS))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < entities; i++ {
			if err := st.LogI(iRecs(i)); err != nil {
				t.Fatal(err)
			}
		}
		st.crashClose()
		eng.Close()
	}

	// workload runs the probe against dir; acked collects the indexes of
	// the batches LogE acknowledged (and the workload then buffered, as
	// Plane.Submit does). The episode injector (fresh per run, outermost)
	// fails the 7th fsync — deterministically a WAL append fsync after the
	// mid-cycle checkpoint — forcing a degraded episode whose repair hits
	// the truncate/reopen sites on the swept fs.
	workload := func(dir string, fs FS) (acked []int) {
		episode := fault.New()
		episode.Arm(SiteFSSync, fault.Rule{After: 6, Count: 1})
		opts := faultOpts(NewFaultFS(fs, episode))
		opts.SegmentBytes = 2 << 10 // rotation mid-workload
		eng, st, _, err := Recover(dir, emptyDS("E"), emptyDS("I"), testEngineCfg(), opts)
		if err != nil {
			return nil // boot-time fail-stop: a legal outcome under injection
		}
		defer eng.Close()
		for i := 0; i < entities; i++ {
			recs := eRecs(i)
			if err := st.LogE(recs); err == nil {
				eng.AddE(recs...)
				acked = append(acked, i)
			} else if errors.Is(err, ErrDegraded) {
				// Wait out the reopen so later batches exercise the recovered
				// path too.
				deadline := time.Now().Add(5 * time.Second)
				for st.Degraded() && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
			}
			if i == 3 {
				eng.Run()
				_, _ = st.Checkpoint()
			}
		}
		eng.Run()
		_ = st.Close()
		return acked
	}

	// Baseline pass: count how often each site is hit so the sweep can
	// enumerate every call index. The workload is deterministic under
	// inline fsync (no background syncer).
	baseline := fault.New()
	baseDir := t.TempDir()
	seed(baseDir)
	ackedBase := workload(baseDir, NewFaultFS(OSFS, baseline))
	if len(ackedBase) != entities-1 { // one batch is nacked by the provoked episode
		t.Fatalf("baseline acked %d/%d batches: %v", len(ackedBase), entities-1, ackedBase)
	}

	verify := func(name, dir string, acked []int) (installed bool) {
		t.Helper()
		var e, i []slim.Record
		for k := 0; k < entities; k++ {
			i = append(i, iRecs(k)...)
		}
		for _, k := range acked {
			e = append(e, eRecs(k)...)
		}
		want := oracleLinks(t, e, i)
		if len(want) != len(acked) {
			t.Fatalf("%s: oracle links %d of %d acked entities", name, len(want), len(acked))
		}
		eng2, st2, info, err := Recover(dir, emptyDS("E"), emptyDS("I"), testEngineCfg(), Options{})
		if err != nil {
			t.Errorf("%s: recovery after fault failed: %v", name, err)
			return false
		}
		defer eng2.Close()
		defer st2.crashClose()
		if info.HasResult {
			res, _, _ := eng2.Result()
			requireLinksBits(t, name+": installed result", res.Links, want)
		}
		requireLinksBits(t, name+": first relink", eng2.Run().Links, want)
		return info.HasResult
	}
	if !verify("baseline", baseDir, ackedBase) {
		t.Error("baseline: the clean close's result checkpoint was not installed")
	}

	for _, site := range FaultSites {
		hits := baseline.Hits(site)
		if hits == 0 {
			t.Errorf("site %s never hit by the probe workload", site)
			continue
		}
		for idx := 0; idx < hits; idx++ {
			name := fmt.Sprintf("%s@%d", site, idx)
			inj := fault.New()
			inj.Arm(site, fault.Rule{After: idx, Count: 1})
			dir := t.TempDir()
			seed(dir)
			acked := workload(dir, NewFaultFS(OSFS, inj)) // must not panic
			// Fault-free recovery must succeed and link every acked batch.
			verify(name, dir, acked)
		}
	}
}

// TestFSFailureSweepFreshBoot fails each filesystem call of a Recover on a
// fresh directory once — the boot TestFSFailureSweep never makes, since it
// boots a pre-seeded directory, so the base write is swept here. The calls
// are counted on a fault-free boot, then each index fails in turn; boots
// whose engine cannot be built, over an invalid configuration or invalid
// seeds, are the last cases. After each, Recover has
// either succeeded or returned the injected error, no temp file is left,
// no goroutine outlives it, and a fault-free Recover with the same seeds
// links Float64bits-equal to the boot nothing was injected into.
func TestFSFailureSweepFreshBoot(t *testing.T) {
	var seedE, seedI slim.Dataset
	for k := 0; k < 6; k++ {
		seedE.Records = append(seedE.Records, mkRecs(fmt.Sprintf("e-%d", k), float64(k)*0.3, 6, 1_000_000)...)
		seedI.Records = append(seedI.Records, mkRecs(fmt.Sprintf("i-%d", k), float64(k)*0.3, 6, 1_000_030)...)
	}
	seedE.Name, seedI.Name = "E", "I"

	// relink recovers dir fault-free with the same seeds and links once.
	relink := func(name, dir string) []slim.Link {
		t.Helper()
		eng, st, _, err := Recover(dir, seedE, seedI, testEngineCfg(), Options{})
		if err != nil {
			t.Fatalf("%s: fault-free recovery failed: %v", name, err)
		}
		defer st.crashClose()
		return eng.Run().Links
	}
	// settled waits for the goroutines of a closed Recover to exit.
	settled := func(name string, before int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines outlive Recover (%d before)", name, runtime.NumGoroutine(), before)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// boot runs one fresh Recover under fs and cfg and holds it to the
	// first three checks; it returns Recover's error.
	boot := func(name, dir string, fs FS, cfg engine.Config) error {
		t.Helper()
		before := runtime.NumGoroutine()
		eng, st, _, err := Recover(dir, seedE, seedI, cfg, faultOpts(fs))
		if err == nil {
			st.crashClose()
			eng.Close()
		}
		temps, globErr := filepath.Glob(filepath.Join(dir, "*.tmp"))
		if globErr != nil || len(temps) != 0 {
			t.Errorf("%s: temp files left: %v (%v)", name, temps, globErr)
		}
		settled(name, before)
		return err
	}

	baseline := fault.New()
	baseDir := t.TempDir()
	if err := boot("baseline", baseDir, NewFaultFS(OSFS, baseline), testEngineCfg()); err != nil {
		t.Fatal(err)
	}
	want := relink("baseline", baseDir)
	if len(want) != 6 {
		t.Fatalf("baseline links %d of the 6 seeded pairs: %v", len(want), want)
	}

	swept := 0
	for _, site := range FaultSites {
		for idx := 0; idx < baseline.Hits(site); idx++ {
			name := fmt.Sprintf("%s@%d", site, idx)
			inj := fault.New()
			inj.Arm(site, fault.Rule{After: idx, Count: 1})
			dir := t.TempDir()
			if err := boot(name, dir, NewFaultFS(OSFS, inj), testEngineCfg()); err != nil && !errors.Is(err, fault.ErrInjected) {
				t.Errorf("%s: Recover returned %v, not the injected error", name, err)
			}
			if inj.Fired(site) != 1 {
				t.Errorf("%s: the fault fired %d times inside Recover, want once", name, inj.Fired(site))
			}
			requireLinksBits(t, name, relink(name, dir), want)
			swept++
		}
	}
	if swept < 10 {
		t.Fatalf("a fresh Recover made only %d filesystem calls; the base write is not in the sweep", swept)
	}

	// An engine that cannot be built fails the boot after the base is
	// written; the directory then boots like any other.
	bad := testEngineCfg()
	bad.Link.WindowMinutes = -1
	dir := t.TempDir()
	if err := boot("engine.New", dir, OSFS, bad); err == nil {
		t.Fatal("Recover built an engine over an invalid configuration")
	}
	requireLinksBits(t, "engine.New", relink("engine.New", dir), want)

	// Seeds the engine refuses fail the boot before they are written, so a
	// Recover with corrected seeds on the same directory boots as if the
	// failed one had never run.
	for name, spoil := range map[string]func(*slim.Record){
		"empty id":    func(r *slim.Record) { r.Entity = "" },
		"nan radius":  func(r *slim.Record) { r.RadiusKm = math.NaN() },
		"latitude 95": func(r *slim.Record) { r.LatLng.Lat = 95 },
	} {
		spoiled := slim.Dataset{Name: seedI.Name, Records: slices.Clone(seedI.Records)}
		spoil(&spoiled.Records[3])
		dir := t.TempDir()
		before := runtime.NumGoroutine()
		if _, _, _, err := Recover(dir, seedE, spoiled, testEngineCfg(), Options{}); err == nil {
			t.Fatalf("%s: Recover accepted an invalid seed record", name)
		}
		settled(name, before)
		if entries, err := os.ReadDir(dir); err != nil || len(entries) != 0 {
			t.Errorf("%s: a refused boot left %v in the directory (%v)", name, entries, err)
		}
		requireLinksBits(t, name, relink(name, dir), want)
	}
}
