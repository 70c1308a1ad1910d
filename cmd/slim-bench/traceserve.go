package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"slim"
	"slim/internal/engine"
	"slim/internal/ingest"
	"slim/internal/obs"
	"slim/internal/server"
	"slim/internal/storage"
)

// timedStore decorates the real store on the two seams the ingest paths
// reach it through — engine.Persister (JSON plane) and
// ingest.BatchLogger (binary plane) — and records a span per call.
type timedStore struct {
	*storage.Store
	tr *tracer
	// parent names the span under which the current call happens.
	parent  string
	appendH *obs.Histogram // slim_wal_append_seconds of the store's registry
}

func (t *timedStore) logJSON(log func([]slim.Record) error, recs []slim.Record) error {
	// The persister seam fuses the append with the group-commit wait; the
	// store's own append histogram splits them.
	before := t.appendH.Sum()
	start := time.Now()
	err := log(recs)
	total := time.Since(start)
	appendDur := min(time.Duration((t.appendH.Sum()-before)*float64(time.Second)), total)
	t.tr.child("storage.wal_append", t.parent, appendDur)
	t.tr.child("storage.fsync_wait", t.parent, total-appendDur)
	return err
}

func (t *timedStore) LogE(recs []slim.Record) error { return t.logJSON(t.Store.LogE, recs) }
func (t *timedStore) LogI(recs []slim.Record) error { return t.logJSON(t.Store.LogI, recs) }

func (t *timedStore) LogEncoded(tag byte, recordBytes []byte, recs []slim.Record) (func() error, error) {
	sp := t.tr.begin("storage.wal_append", t.parent)
	wait, err := t.Store.LogEncoded(tag, recordBytes, recs)
	sp.end()
	if err != nil {
		return nil, err
	}
	parent := t.parent
	return func() error {
		sp := t.tr.begin("storage.fsync_wait", parent)
		defer sp.end()
		return wait()
	}, nil
}

func (t *timedStore) AfterRun(res slim.Result, version uint64) {
	sp := t.tr.begin("storage.after_run", "engine.run")
	t.Store.AfterRun(res, version)
	sp.end()
}

// traceServe re-drives a serve workload's inputs in-process: the same
// seed and the same request bodies go through the server, ingest plane,
// a real store on a temp directory and the engine, with a span around
// each layer's public call. The harness calls Engine.Run after every
// flush, so the relinks (and their counts) are the same on every run of
// one seed.
func traceServe(h *harness, sc scale, in *inputs, res *result) error {
	dir, err := h.subdir("traced-data")
	if err != nil {
		return err
	}
	seedE, err := readDataset(in.ePath, "E")
	if err != nil {
		return err
	}
	seedI, err := readDataset(in.iPath, "I")
	if err != nil {
		return err
	}
	reg := obs.NewRegistry()
	engCfg := engine.Config{
		Link:       linkConfig(true),
		Debounce:   serveDebounce,
		Registry:   reg,
		RunJournal: serveRunJournal,
	}
	opts := storage.Options{FsyncInterval: storage.DefaultFsyncInterval, Registry: reg}
	eng, store, _, err := storage.Recover(dir, seedE, seedI, engCfg, opts)
	if err != nil {
		return fmt.Errorf("traced pass: %w", err)
	}
	// The engine's scheduler is never started: the harness runs it. The
	// store's closing checkpoint lands in a directory about to be deleted.
	defer func() {
		eng.Close()
		_ = store.Close()
	}()
	plane := ingest.NewPlane(eng, ingest.Config{Registry: reg})
	srv := server.New(eng, nil, server.WithIngestPlane(plane), server.WithRegistry(reg))
	srv.AttachStore(store)
	tr := newTracer()
	res.tracers = append(res.tracers, tr)
	ts := &timedStore{Store: store, tr: tr, appendH: reg.Histogram("slim_wal_append_seconds", "", nil)}
	plane.AttachLogger(ts)
	eng.SetPersister(ts)
	srv.SetReady()
	eng.Run() // the boot link, as slimd does before it listens
	handler := srv.Handler()
	fsyncH := reg.Histogram("slim_wal_fsync_seconds", "", nil)
	fsyncs0 := fsyncH.Count()
	snaps0 := store.Stats().Snapshots

	var flushSeconds []float64
	for k := range in.flushes {
		flushStart := time.Now()
		for j := range in.flushes[k].reqs {
			req := &in.flushes[k].reqs[j]
			var err error
			if req.contentType == ingest.ContentType {
				err = traceBinaryIngest(tr, ts, plane, req)
			} else {
				err = traceJSONIngest(tr, ts, handler, req)
			}
			if err != nil {
				res.violate("traced ingest of flush %d: %v", k, err)
				return nil
			}
		}
		sp := tr.begin("engine.run", "")
		eng.Run()
		sp.end()
		recs, _ := eng.Runs(1, 0)
		rec := recs[0]
		index := min(rec.IndexDur, rec.RescoreDur) // summed over shards; see README
		tr.child("engine.apply", "engine.run", rec.ApplyDur)
		tr.child("engine.index", "engine.run", index)
		tr.child("engine.rescore", "engine.run", rec.RescoreDur-index)
		tr.child("engine.merge", "engine.run", rec.MergeDur)
		tr.child("engine.match", "engine.run", rec.MatchDur)
		tr.child("engine.threshold", "engine.run", rec.ThresholdDur)
		flushSeconds = append(flushSeconds, time.Since(flushStart).Seconds())

		if in.pageReads {
			// serve_revisit reads beside its writes: one links page a flush.
			sp := tr.begin("server.links_page", "")
			rw := httptest.NewRecorder()
			offset := k * sc.pageLimit % max(len(eng.Links()), 1)
			handler.ServeHTTP(rw, httptest.NewRequest("GET",
				fmt.Sprintf("/v1/links?offset=%d&limit=%d", offset, sc.pageLimit), nil))
			sp.end()
			res.add("server.links_page_bytes", float64(rw.Body.Len()))
		}
	}

	self := tr.selfSeconds()
	total := tr.seconds("server.json_ingest") + tr.seconds("ingest.parse") + tr.seconds("ingest.admit") +
		tr.seconds("ingest.submit") + tr.seconds("engine.run")
	res.set("trace.total_s", total)
	res.set("server.json_ingest_s", self["server.json_ingest"])
	res.set("server.links_page_s", self["server.links_page"])
	res.set("ingest.parse_s", self["ingest.parse"])
	res.set("ingest.admit_s", self["ingest.admit"])
	res.set("ingest.submit_s", self["ingest.submit"])
	res.set("ingest.shed_requests", float64(plane.Stats().ShedRequests))
	res.set("storage.wal_append_s", self["storage.wal_append"])
	res.set("storage.fsync_wait_s", self["storage.fsync_wait"])
	res.set("storage.after_run_s", self["storage.after_run"])
	res.set("engine.run_s", tr.seconds("engine.run"))
	res.set("engine.apply_s", self["engine.apply"])
	res.set("engine.index_s", self["engine.index"])
	res.set("engine.rescore_s", self["engine.rescore"])
	res.set("engine.merge_s", self["engine.merge"])
	res.set("engine.match_s", self["engine.match"])
	res.set("engine.threshold_s", self["engine.threshold"])
	res.set("engine.run_unattributed_s", self["engine.run"])
	if total > 0 {
		res.set("trace.unattributed_ratio", self["engine.run"]/total)
	}
	checkBudget(res)

	sst := store.Stats()
	if sst.RecordsLogged > 0 {
		res.set("storage.wal_bytes_per_record", float64(sst.WALBytesAppended)/float64(sst.RecordsLogged))
	}
	res.set("storage.fsyncs", float64(fsyncH.Count()-fsyncs0))
	res.set("storage.snapshots", float64(sst.Snapshots-snaps0))
	res.set("storage.snapshot_s", reg.Histogram("slim_storage_snapshot_seconds", "", nil).Sum())

	// The relinks' own account of their work, from the flight recorder.
	all, _ := eng.Runs(len(in.flushes), 0)
	var rescored, retained, reusedPrefix, tailLinks float64
	for _, r := range all {
		if r.ShortCircuit {
			res.add("engine.short_circuits", 1)
			continue
		}
		res.add("engine.runs", 1)
		if r.FullRescore {
			res.add("engine.full_rescores", 1)
		}
		if r.TailFullRebuild {
			res.add("slim.tail_full_rebuilds", 1)
		}
		rescored += float64(r.Rescored)
		retained += float64(r.Retained)
		reusedPrefix += float64(r.TailReusedPrefix)
		tailLinks += float64(r.Links)
	}
	res.set("engine.pairs_rescored", rescored)
	res.set("engine.pairs_retained", retained)
	if rescored+retained > 0 {
		res.set("engine.retained_ratio", retained/(rescored+retained))
	}
	if tailLinks > 0 {
		res.set("slim.tail_reused_prefix_ratio", reusedPrefix/tailLinks)
	}

	// How far the in-process model is from the black box: the median
	// traced flush (acks + run) against the black box's visible p50 less
	// the debounce it waits out.
	if blackBox := res.values["visible_ms_p50"] - ms(serveDebounce); blackBox > 0 {
		res.set("serve.model_gap_ratio", (blackBox-median(flushSeconds)*1000)/blackBox)
	}
	return traceRecover(sc, in, dir, store, engCfg, opts, res)
}

// traceJSONIngest sends one JSON ingest request through the server's
// root handler; what the store's spans do not cover is the server's own
// decode, validate, admit, buffer and encode.
func traceJSONIngest(tr *tracer, ts *timedStore, handler http.Handler, req *request) error {
	ts.parent = "server.json_ingest"
	hr := httptest.NewRequest("POST", req.path, bytes.NewReader(req.body))
	hr.Header.Set("Content-Type", req.contentType)
	rw := httptest.NewRecorder()
	sp := tr.begin("server.json_ingest", "")
	handler.ServeHTTP(rw, hr)
	sp.end()
	if rw.Code != http.StatusAccepted {
		return fmt.Errorf("status %d: %s", rw.Code, rw.Body.String())
	}
	return nil
}

// traceBinaryIngest walks one binary request through the ingest plane's
// public steps, as the server's handler does.
func traceBinaryIngest(tr *tracer, ts *timedStore, plane *ingest.Plane, req *request) error {
	sp := tr.begin("ingest.parse", "")
	batches, records, err := ingest.ParseRequest(req.body)
	sp.end()
	if err != nil {
		return err
	}
	sp = tr.begin("ingest.admit", "")
	release, err := plane.Admit(records)
	sp.end()
	if err != nil {
		return err
	}
	defer release()
	ts.parent = "ingest.submit"
	sp = tr.begin("ingest.submit", "")
	_, err = plane.Submit(batches)
	sp.end()
	return err
}

// traceRecover measures storage.Recover on the directory the traced pass
// populated. A checkpoint first settles any automatic one still being
// written; then a fixed number of flushes is logged again so that every
// run replays a WAL tail of the same size, and the directory is recovered
// while the first store is still open, as a crash would leave it.
func traceRecover(sc scale, in *inputs, dir string, store *storage.Store,
	engCfg engine.Config, opts storage.Options, res *result) error {
	if _, err := store.Checkpoint(); err != nil {
		return fmt.Errorf("traced pass: checkpoint: %w", err)
	}
	for k := 0; k < min(sc.replayFlushes, len(in.flushes)); k++ {
		for _, req := range in.flushes[k].reqs {
			log := store.LogE
			if req.tag == storage.TagI {
				log = store.LogI
			}
			// The store quantizes in place; the inputs stay as generated.
			if err := log(append([]slim.Record(nil), req.recs...)); err != nil {
				return fmt.Errorf("traced pass: logging the replay tail: %w", err)
			}
		}
	}
	engCfg.Registry, opts.Registry = nil, nil // the second engine's metrics are not read
	start := time.Now()
	eng2, store2, info, err := storage.Recover(dir, slim.Dataset{Name: "E"}, slim.Dataset{Name: "I"}, engCfg, opts)
	took := time.Since(start).Seconds()
	if err != nil {
		return fmt.Errorf("traced pass: recover: %w", err)
	}
	eng2.Close()
	if err := store2.Close(); err != nil {
		return fmt.Errorf("traced pass: closing the recovered store: %w", err)
	}
	res.set("storage.recover_s", took)
	res.set("storage.replay_records_per_s", float64(info.ReplayedRecords)/took)
	return nil
}
