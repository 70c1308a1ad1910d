// Command slimd serves SLIM linkage as a long-running HTTP service:
// records stream in over JSON or binary frames, a debounced background
// scheduler re-links what they dirtied, and the current links are
// queryable at any time. See DESIGN.md for the API and curl examples.
//
// Usage:
//
//	slimd [-addr :8080] [-debounce 2s] [-e seed.csv -i seed.csv]
//	      [-data-dir ./data] [-fsync-interval 2ms] [-snapshot-every 8]
//	      [-ingest-queue-depth 262144] [-ingest-shed-after 10s]
//	      [-max-ingest-body 16777216] [-debug-addr localhost:6060]
//	      [-fault site:action[:trigger],...] [flags]
//
// The service may start empty (stream everything over the API) or seeded
// with two CSV datasets (entity,lat,lng,unix), which are linked once at
// boot. With -data-dir, the seed datasets are written to the directory
// once, every acknowledged ingest batch is durably logged to a write-ahead
// log before it is accepted, a checkpoint (every -snapshot-every relinks,
// POST /v1/snapshot, shutdown) persists the published links beside the
// log, and a restart (even after kill -9) rebuilds the
// full state from the seeds and the whole log before /readyz reports
// ready. The directory is the only copy of the records and nothing in it
// is truncated. Linkage flags mirror slim-link: -window, -level,
// -max-speed, -b, -min-records, -workers, -threshold, and the -lsh family.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"math"
	"net"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof on the debug mux
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"slim"
	"slim/cmd/internal/linkflags"
	"slim/internal/engine"
	"slim/internal/fault"
	"slim/internal/ingest"
	"slim/internal/obs"
	"slim/internal/server"
	"slim/internal/storage"
)

// fatal logs at error level and exits — the slog equivalent of
// log.Fatal, kept explicit so every exit path still emits one line.
func fatal(logger *slog.Logger, msg string, args ...any) {
	logger.Error(msg, args...)
	os.Exit(1)
}

func main() {
	boot := time.Now()
	var (
		addr       = flag.String("addr", ":8080", "HTTP listen address")
		debugAddr  = flag.String("debug-addr", "", "optional debug listen address serving net/http/pprof (e.g. localhost:6060)")
		logFormat  = flag.String("log-format", "text", "log output format: text | json")
		debounce   = flag.Duration("debounce", engine.DefaultDebounce, "quiet period after ingest before a background relink")
		runJournal = flag.Int("run-journal", engine.DefaultRunJournal, "relink flight-recorder size: how many recent runs GET /v1/runs retains")
		ePath      = flag.String("e", "", "optional seed CSV for the first dataset")
		iPath      = flag.String("i", "", "optional seed CSV for the second dataset")

		queueDepth = flag.Int("ingest-queue-depth", ingest.DefaultQueueDepth, "shed ingest once this many records are queued (inflight + pending relink)")
		shedAfter  = flag.Duration("ingest-shed-after", ingest.DefaultShedAfter, "shed ingest once the oldest admitted or unpublished record has waited this long (<0 = never)")
		maxBody    = flag.Int64("max-ingest-body", server.MaxIngestBody, "maximum ingest request body in bytes (JSON and binary); larger bodies get 413")

		faultSpecs = flag.String("fault", "", "comma-separated fault-injection specs, site:action[:trigger]... (e.g. fs.sync:error:after=20, engine.rescore:panic:count=1) — chaos testing only; the process must survive every armed fault")

		dataDir       = flag.String("data-dir", "", "durable data directory (seed base + WAL + result checkpoints); empty = in-memory only")
		fsyncInterval = flag.Duration("fsync-interval", storage.DefaultFsyncInterval, "WAL group-commit window (0 = fsync every append, <0 = never fsync)")
		snapshotEvery = flag.Int("snapshot-every", storage.DefaultSnapshotEveryRuns, "checkpoint after this many relinks (<0 = only on POST /v1/snapshot and shutdown)")

		linkage = linkflags.Bind(flag.CommandLine)
	)
	flag.Parse()
	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		fmt.Fprintf(os.Stderr, "slimd: unknown -log-format %q (want text or json)\n", *logFormat)
		os.Exit(2)
	}
	logger := slog.New(handler)
	// An operator's GOMEMLIMIT, read before slimd sets its own limit, stays
	// a ceiling on every limit slimd derives.
	ceiling := debug.SetMemoryLimit(-1)

	// One registry for the whole process: engine, storage, ingest plane,
	// and HTTP server all record into it, and GET /metrics exposes it.
	registry := obs.NewRegistry()
	obs.RegisterRuntime(registry)

	cfg := linkage()

	// The seeds are read only by a boot that uses them: without a data
	// directory, or by Recover for one that holds no base yet.
	var seedsTook time.Duration
	loadSeeds := func() (dsE, dsI slim.Dataset, err error) {
		start := time.Now()
		defer func() { seedsTook = time.Since(start) }()
		if dsE, err = readSeed(*ePath, "E"); err == nil {
			dsI, err = readSeed(*iPath, "I")
		}
		return dsE, dsI, err
	}
	engineStart := time.Now()

	// Fault injection (-fault) arms the chaos sites across the storage
	// and relink layers. A nil injector is a never-firing no-op, so the
	// production path carries no flag checks past this point.
	var inj *fault.Injector
	if *faultSpecs != "" {
		inj = fault.New()
		for _, spec := range strings.Split(*faultSpecs, ",") {
			if spec = strings.TrimSpace(spec); spec == "" {
				continue
			}
			if err := inj.ArmSpec(spec); err != nil {
				fatal(logger, "bad -fault spec", "spec", spec, "error", err)
			}
			logger.Warn("fault armed", "spec", spec)
		}
	}

	engCfg := engine.Config{
		Link:       cfg,
		Debounce:   *debounce,
		Registry:   registry,
		RunJournal: *runJournal,
		Fault:      inj,
		Logger:     logger,
		// Every published run re-derives the memory limit from what the
		// engine then holds, so the limit follows the linker as it grows.
		AfterPublish: func(st engine.Stats) { paceHeap(st, ceiling) },
	}
	var eng *engine.Engine
	var store *storage.Store
	if *dataDir != "" {
		fs := storage.OSFS
		if inj != nil {
			fs = storage.NewFaultFS(storage.OSFS, inj)
		}
		var info storage.RecoverInfo
		var err error
		eng, store, info, err = storage.Recover(*dataDir, slim.Dataset{Name: "E"}, slim.Dataset{Name: "I"}, engCfg, storage.Options{
			FsyncInterval:     *fsyncInterval,
			SnapshotEveryRuns: *snapshotEvery,
			Logger:            logger,
			Registry:          registry,
			FS:                fs,
			Seeds:             loadSeeds,
		})
		if err != nil {
			fatal(logger, "recovering data directory", "dir", *dataDir, "error", err)
		}
		if info.Recovered {
			logger.Info("recovered data directory",
				"dir", *dataDir,
				"snapshot_seq", info.SnapshotSeq,
				"replayed_batches", info.ReplayedBatches,
				"replayed_records", info.ReplayedRecords,
				"seed_records", info.SeedRecords,
				"streamed_records", info.StreamedRecords)
			if *ePath != "" || *iPath != "" {
				logger.Info("seed flags ignored; data directory already holds persisted seeds", "dir", *dataDir)
			}
		} else {
			logger.Info("initialized data directory", "dir", *dataDir)
		}
	} else {
		// The seeds are slimd's own: on the E7 grid and grouped in place, as
		// Recover stores them, they link as from a data directory and are
		// built over without a copy.
		dsE, dsI, err := loadSeeds()
		if err != nil {
			fatal(logger, "loading seed", "error", err)
		}
		for _, ds := range []*slim.Dataset{&dsE, &dsI} {
			storage.QuantizeDataset(*ds)
			ds.GroupInPlace()
		}
		eng, err = engine.New(dsE, dsI, engCfg)
		if err != nil {
			fatal(logger, "building engine", "error", err)
		}
	}
	engineDone := time.Now()
	// One collection as soon as the engine exists, on the path every boot
	// route takes: the seed records and the build's garbage are dead, so it
	// marks what the engine holds (a recovery's replayed log included, in
	// its pending buffers), and the memory limit derived from that paces
	// the boot link and what follows. The boot's last natural cycle lands
	// wherever its allocations put it, often mid-build with a half-built
	// linker live. Only this process owns its heap, so no library package
	// calls the collector or sets the limit.
	runtime.GC()
	heapLive := obs.HeapLiveBytes()
	paceHeap(eng.Stats(), ceiling)
	gcDone := time.Now()
	eng.Start()
	plane := ingest.NewPlane(eng, ingest.Config{
		QueueDepth: *queueDepth,
		ShedAfter:  *shedAfter,
		Registry:   registry,
	})
	// One deferred shutdown so the order is explicit: drain the ingest
	// plane first (no acknowledgement may still be racing the close),
	// then the engine (waits out any in-flight relink), then the store,
	// whose final checkpoint captures the last published result.
	defer func() {
		drainCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := plane.Drain(drainCtx); err != nil {
			logger.Warn("ingest plane drain timed out; closing anyway", "error", err)
		}
		cancel()
		eng.Close()
		if store != nil {
			if err := store.Close(); err != nil {
				logger.Error("closing storage", "error", err)
			}
		}
	}()

	// Serve the recovered result when there is one (a checkpoint taken at
	// the log's last batch, e.g. a clean shutdown's; the background
	// scheduler refreshes it shortly after boot). Otherwise link once at
	// boot when there is anything to link: seed datasets, or recovered
	// state whose log runs past the last result checkpoint.
	if res, _, ok := eng.Result(); ok {
		logger.Info("serving recovered linkage", "links", len(res.Links), "threshold", res.Threshold)
	} else if st := eng.Stats(); st.EntitiesE+st.EntitiesI > 0 || eng.Pending() > 0 {
		res := eng.Run()
		logger.Info("boot linkage",
			"links", len(res.Links),
			"matched", len(res.Matched),
			"threshold", res.Threshold,
			"elapsed", res.Elapsed)
	}
	linkDone := time.Now()

	srv := server.New(eng, logger,
		server.WithIngestPlane(plane),
		server.WithMaxIngestBody(*maxBody),
		server.WithRegistry(registry),
	)
	if store != nil {
		srv.AttachStore(store)
	}
	srv.SetReady()

	// Optional debug endpoint: the pprof profiles net/http/pprof registers
	// on the default mux, kept off the serving address. Relink stages run
	// under a stage=<name> profiler label, so CPU profiles split by stage.
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fatal(logger, "debug listen failed", "addr", *debugAddr, "error", err)
		}
		logger.Info("debug server listening", "addr", dln.Addr().String(), "endpoints", "/debug/pprof/")
		go func() {
			dbg := &http.Server{
				Handler:           http.DefaultServeMux,
				ReadHeaderTimeout: 10 * time.Second,
				// Slow-client bounds: pprof profile captures stream for up
				// to their ?seconds=, so the write timeout stays generous.
				ReadTimeout:  30 * time.Second,
				WriteTimeout: 2 * time.Minute,
				IdleTimeout:  2 * time.Minute,
			}
			if err := dbg.Serve(dln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug server", "error", err)
			}
		}()
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(logger, "listen failed", "addr", *addr, "error", err)
	}
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		// Bound slow or stalled clients so a handful of dead connections
		// cannot pin goroutines and buffers forever. The write timeout
		// must cover a synchronous POST /v1/link on a large corpus, so it
		// is generous rather than tight.
		ReadTimeout:  30 * time.Second,
		WriteTimeout: 2 * time.Minute,
		IdleTimeout:  2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	// The boot breakdown, step by step; no addr attribute, which only the
	// listening line carries.
	engineKey := "engine_ms"
	if store != nil {
		engineKey = "recover_ms"
	}
	logger.Info("boot",
		"seeds_ms", millis(engineStart.Sub(boot)+seedsTook),
		engineKey, millis(engineDone.Sub(engineStart)-seedsTook),
		"gc_ms", millis(gcDone.Sub(engineDone)),
		"heap_live_mb", mebibytes(int64(heapLive)),
		"link_ms", millis(linkDone.Sub(gcDone)),
		"memory_limit_mb", mebibytes(debug.SetMemoryLimit(-1)),
		"ready_ms", millis(time.Since(boot)))
	logger.Info("listening",
		"addr", ln.Addr().String(),
		"spatial_level", eng.SpatialLevel(),
		"debounce", *debounce)

	select {
	case err := <-errCh:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fatal(logger, "serve failed", "error", err)
		}
	case <-ctx.Done():
		logger.Info("shutting down")
		shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			logger.Error("shutdown", "error", err)
		}
	}
}

// millis renders a boot step's duration in milliseconds.
func millis(d time.Duration) float64 { return float64(d.Microseconds()) / 1e3 }

// mebibytes renders a byte count in MiB to two decimals.
func mebibytes(b int64) float64 { return math.Round(float64(b)/(1<<20)*100) / 100 }

// readSeed loads an optional seed dataset; an empty path yields an empty
// dataset of the given name.
func readSeed(path, name string) (slim.Dataset, error) {
	if path == "" {
		return slim.Dataset{Name: name}, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return slim.Dataset{}, err
	}
	defer f.Close()
	ds, err := slim.ReadDatasetCSV(f, name)
	if err != nil {
		return slim.Dataset{}, fmt.Errorf("reading %s: %w", path, err)
	}
	return ds, nil
}
