package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"slim"
	"slim/internal/engine"
	"slim/internal/ingest"
	"slim/internal/obs"
	"slim/internal/storage"
)

// jsonKeys flattens a decoded JSON document into its sorted set of dotted
// key paths; an array contributes the keys of its first element.
func jsonKeys(v any) []string {
	var out []string
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch x := v.(type) {
		case map[string]any:
			for k, child := range x {
				out = append(out, prefix+k)
				walk(prefix+k+".", child)
			}
		case []any:
			if len(x) > 0 {
				walk(prefix, x[0])
			}
		}
	}
	walk("", v)
	sort.Strings(out)
	return out
}

// jsonTypeName names the JSON type of a decoded value.
func jsonTypeName(v any) string {
	switch v.(type) {
	case float64:
		return "number"
	case string:
		return "string"
	case bool:
		return "bool"
	case map[string]any:
		return "object"
	case []any:
		return "array"
	}
	return "null"
}

// jsonTypes is jsonKeys with each path's JSON type attached
// ("path=number|string|bool|object|array|null").
func jsonTypes(v any) []string {
	var out []string
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch x := v.(type) {
		case map[string]any:
			for k, child := range x {
				out = append(out, prefix+k+"="+jsonTypeName(child))
				walk(prefix+k+".", child)
			}
		case []any:
			if len(x) > 0 {
				walk(prefix, x[0])
			}
		}
	}
	walk("", v)
	sort.Strings(out)
	return out
}

var metricLabelRE = regexp.MustCompile(`([a-zA-Z_][a-zA-Z0-9_]*)="(?:\\.|[^"\\])*"`)

// metricShapes reduces a Prometheus exposition to one sorted line per
// family: "name kind labelkeys help", labelkeys being the comma-joined
// sorted union of label keys over the family's samples ("-" when none).
func metricShapes(text string) []string {
	help, kind, labels := map[string]string{}, map[string]string{}, map[string]map[string]bool{}
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			name, h, _ := strings.Cut(rest, " ")
			help[name] = h
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, k, _ := strings.Cut(rest, " ")
			kind[name], labels[name] = k, map[string]bool{}
			continue
		}
		open, shut := strings.IndexByte(line, '{'), strings.LastIndexByte(line, '}')
		if open < 0 || shut < open {
			continue
		}
		name := line[:open]
		if _, ok := kind[name]; !ok {
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				name = strings.TrimSuffix(name, suffix)
			}
		}
		for _, m := range metricLabelRE.FindAllStringSubmatch(line[open+1:shut], -1) {
			labels[name][m[1]] = true
		}
	}
	var out []string
	for name, k := range kind {
		keys := "-"
		if len(labels[name]) > 0 {
			var ks []string
			for l := range labels[name] {
				ks = append(ks, l)
			}
			sort.Strings(ks)
			keys = strings.Join(ks, ",")
		}
		out = append(out, name+" "+k+" "+keys+" "+help[name])
	}
	sort.Strings(out)
	return out
}

// Key blocks of /v1/stats, composed per configuration below.
var (
	statsCoreKeys = strings.Fields(`
		edge_store edge_store.dropped_last edge_store.dropped_total edge_store.epoch
		edge_store.full_rescore_last edge_store.last_update_ms edge_store.pairs
		edge_store.rescored_last edge_store.rescored_total edge_store.resident_bytes
		edge_store.retained_last edge_store.retained_total
		entities_e entities_i
		histories histories.ordinals_e_bytes histories.ordinals_i_bytes histories.scoring_e_bytes
		histories.scoring_i_bytes histories.signature_e_bytes histories.signature_i_bytes
		ingest ingest.accepted_batches ingest.accepted_records ingest.inflight_records
		ingest.oldest_wait_ms ingest.pending_records ingest.queue_depth ingest.retry_after_ms
		ingest.shed_after_ms ingest.shed_latency ingest.shed_queue_depth ingest.shed_records
		ingest.shed_requests
		ingested_e ingested_i last_run_unix_ms links loop_restarts pending_records
		publish_tail publish_tail.last_match_ms publish_tail.last_threshold_ms
		publish_tail.last_update_ms publish_tail.matched
		publish_tail.threshold_fits_total publish_tail.threshold_reuses_total
		relink_panics
		run_journal run_journal.capacity run_journal.records run_journal.total_runs
		runs runs_short_circuited spatial_level threshold version`)
	statsLSHKeys = strings.Fields(`
		candidate_index candidate_index.buckets candidate_index.candidates
		candidate_index.dirty_entities_last candidate_index.last_update_ms
		candidate_index.memberships candidate_index.num_buckets candidate_index.occupancy
		candidate_index.resident_bytes candidate_index.rows candidate_index.signatures_e
		candidate_index.signatures_i`)
	statsStoreKeys = strings.Fields(`
		storage storage.batches_logged storage.dir storage.fsync_interval_ms
		storage.last_snapshot_seq storage.last_snapshot_unix_ms storage.next_seq
		storage.records_logged storage.snapshots storage.wal_bytes_appended
		storage.wal_disk_bytes storage.wal_segments`)
	runsKeys = strings.Fields(`
		capacity count runs runs.candidate_pairs runs.dropped runs.duration_ms runs.full_rescore
		runs.links runs.panicked runs.rescored runs.retained runs.seq runs.short_circuit
		runs.stages runs.stages.apply_ms runs.stages.candidate_index_ms runs.stages.match_ms
		runs.stages.merge_ms runs.stages.rescore_ms runs.stages.threshold_ms
		runs.start_unix_ms runs.trigger
		runs.version total_runs`)
	// Every family the engine, server and ingest plane register; a store
	// adds its own on top.
	baseFamilies = strings.Fields(`
		slim_edge_store_pairs slim_edge_store_resident_bytes slim_entities slim_health_state
		slim_http_inflight_requests slim_http_request_bytes_total slim_http_request_seconds
		slim_http_requests_total slim_http_response_bytes_total
		slim_ingest_accepted_batches_total slim_ingest_accepted_records_total slim_ingest_acked_seq
		slim_ingest_inflight_records slim_ingest_oldest_wait_seconds slim_ingest_queue_depth_limit
		slim_ingest_shed_records_total slim_ingest_shed_requests_total
		slim_ingest_to_visible_seconds slim_ingested_records_total
		slim_link_staleness_seconds slim_link_version slim_link_visible_seq slim_links
		slim_pending_oldest_seconds slim_pending_records
		slim_relink_pairs_dropped_total slim_relink_pairs_rescored_total
		slim_relink_pairs_retained_total slim_relink_panics_total slim_relink_runs_total
		slim_relink_seconds slim_relink_short_circuits_total slim_relink_stage_seconds
		slim_relink_stuck_seconds slim_run_journal_records slim_threshold_fit_total`)
	storeFamilies = strings.Fields(`
		slim_storage_last_snapshot_seq slim_storage_reopen_retries_total slim_storage_snapshot_bytes
		slim_storage_snapshot_seconds slim_storage_snapshots_total
		slim_wal_append_seconds slim_wal_appended_bytes_total slim_wal_batches_total
		slim_wal_fsync_seconds slim_wal_next_seq slim_wal_records_total`)
)

// TestWireSurfacesPinned records the complete JSON key set of /v1/stats
// and of a /v1/runs entry, and the # TYPE family list of /metrics, for
// every combination of LSH and an attached store — the "bit-compatible"
// contract telemetry refactors are held to.
func TestWireSurfacesPinned(t *testing.T) {
	for _, tc := range []struct {
		name       string
		lsh, store bool
	}{
		{"brute", false, false},
		{"lsh", true, false},
		{"brute+store", false, true},
		{"lsh+store", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := slim.Defaults()
			if tc.lsh {
				cfg.LSH = &slim.LSHConfig{Threshold: 0.2, StepWindows: 8, SpatialLevel: 12, NumBuckets: 1 << 10}
			}
			reg := obs.NewRegistry()
			engCfg := engine.Config{Link: cfg, Debounce: time.Hour, Registry: reg}
			var eng *engine.Engine
			var store *storage.Store
			var err error
			if tc.store {
				eng, store, _, err = storage.Recover(t.TempDir(), slim.Dataset{Name: "E"}, slim.Dataset{Name: "I"},
					engCfg, storage.Options{Registry: reg})
			} else {
				eng, err = engine.New(slim.Dataset{Name: "E"}, slim.Dataset{Name: "I"}, engCfg)
			}
			if err != nil {
				t.Fatal(err)
			}
			srv := New(eng, nil, WithRegistry(reg),
				WithIngestPlane(ingest.NewPlane(eng, ingest.Config{Registry: reg})))
			if store != nil {
				srv.AttachStore(store)
				t.Cleanup(func() { store.Close() })
			}
			ts := httptest.NewServer(srv.Handler())
			t.Cleanup(ts.Close)
			t.Cleanup(eng.Close)

			for _, ds := range []string{"e", "i"} {
				var recs []map[string]any
				for e := 0; e < 4; e++ {
					for k := 0; k < 8; k++ {
						recs = append(recs, map[string]any{
							"entity": fmt.Sprintf("%s%d", ds, e),
							"lat":    37.6 + float64(e)*0.01, "lng": -122.4, "unix": int64(900 * k),
						})
					}
				}
				if resp, body := postJSON(t, ts.URL+"/v1/datasets/"+ds+"/records",
					map[string]any{"records": recs}); resp.StatusCode != http.StatusAccepted {
					t.Fatalf("ingest %s: %d %s", ds, resp.StatusCode, body)
				}
			}
			postJSON(t, ts.URL+"/v1/link", nil)

			wantStats := slices.Clone(statsCoreKeys)
			if tc.lsh {
				wantStats = append(wantStats, statsLSHKeys...)
			}
			if tc.store {
				wantStats = append(wantStats, statsStoreKeys...)
			}
			sort.Strings(wantStats)
			var stats, runs any
			getJSON(t, ts.URL+"/v1/stats", &stats)
			if got := jsonKeys(stats); !slices.Equal(got, wantStats) {
				t.Errorf("/v1/stats keys changed:\n got %v\nwant %v", got, wantStats)
			}
			getJSON(t, ts.URL+"/v1/runs", &runs)
			if got := jsonKeys(runs); !slices.Equal(got, runsKeys) {
				t.Errorf("/v1/runs keys changed:\n got %v\nwant %v", got, runsKeys)
			}

			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			if _, err := buf.ReadFrom(resp.Body); err != nil {
				t.Fatal(err)
			}
			var families []string
			for _, line := range strings.Split(buf.String(), "\n") {
				name, ok := strings.CutPrefix(line, "# TYPE ")
				if !ok {
					continue
				}
				name, _, _ = strings.Cut(name, " ")
				families = append(families, name)
			}
			sort.Strings(families)
			wantFamilies := slices.Clone(baseFamilies)
			if tc.store {
				wantFamilies = append(wantFamilies, storeFamilies...)
			}
			sort.Strings(wantFamilies)
			if !slices.Equal(families, wantFamilies) {
				t.Errorf("/metrics families changed:\n got %v\nwant %v", families, wantFamilies)
			}

			// The shape behind the names: the JSON type of every key, and
			// each family's kind, label keys and help text.
			wantTypes := slices.Clone(statsCoreTypes)
			if tc.lsh {
				wantTypes = append(wantTypes, statsLSHTypes...)
			}
			if tc.store {
				wantTypes = append(wantTypes, statsStoreTypes...)
			}
			sort.Strings(wantTypes)
			if got := jsonTypes(stats); !slices.Equal(got, wantTypes) {
				t.Errorf("/v1/stats value types changed:\n got %v\nwant %v", got, wantTypes)
			}
			if got := jsonTypes(runs); !slices.Equal(got, runsTypes) {
				t.Errorf("/v1/runs value types changed:\n got %v\nwant %v", got, runsTypes)
			}
			wantShapes := slices.Clone(baseShapes)
			if tc.store {
				wantShapes = append(wantShapes, storeShapes...)
			}
			sort.Strings(wantShapes)
			if got := metricShapes(buf.String()); !slices.Equal(got, wantShapes) {
				t.Errorf("/metrics kinds, label keys or help changed:\n got\n%s\nwant\n%s",
					strings.Join(got, "\n"), strings.Join(wantShapes, "\n"))
			}
		})
	}
}

// The shape blocks pin what the name blocks above cannot see: the JSON
// type of every /v1/stats and /v1/runs key, and per /metrics family its
// kind, its sorted label keys ("-" for none) and its help text. Captured
// at PR 20, before the surfaces were rendered from the tagged structs.
var (
	statsCoreTypes = strings.Fields(`
		edge_store.dropped_last=number edge_store.dropped_total=number edge_store.epoch=number
		edge_store.full_rescore_last=bool edge_store.last_update_ms=number edge_store.pairs=number
		edge_store.rescored_last=number edge_store.rescored_total=number
		edge_store.resident_bytes=number edge_store.retained_last=number
		edge_store.retained_total=number edge_store=object entities_e=number entities_i=number
		histories.ordinals_e_bytes=number histories.ordinals_i_bytes=number
		histories.scoring_e_bytes=number histories.scoring_i_bytes=number
		histories.signature_e_bytes=number histories.signature_i_bytes=number histories=object
		ingest.accepted_batches=number ingest.accepted_records=number ingest.inflight_records=number
		ingest.oldest_wait_ms=number ingest.pending_records=number ingest.queue_depth=number
		ingest.retry_after_ms=number ingest.shed_after_ms=number ingest.shed_latency=number
		ingest.shed_queue_depth=number ingest.shed_records=number ingest.shed_requests=number
		ingest=object ingested_e=number ingested_i=number last_run_unix_ms=number links=number
		loop_restarts=number pending_records=number publish_tail.last_match_ms=number
		publish_tail.last_threshold_ms=number publish_tail.last_update_ms=number
		publish_tail.matched=number publish_tail.threshold_fits_total=number
		publish_tail.threshold_reuses_total=number publish_tail=object relink_panics=number
		run_journal.capacity=number run_journal.records=number run_journal.total_runs=number
		run_journal=object runs=number runs_short_circuited=number spatial_level=number
		threshold=number version=number`)
	statsLSHTypes = strings.Fields(`
		candidate_index.buckets=number candidate_index.candidates=number
		candidate_index.dirty_entities_last=number candidate_index.last_update_ms=number
		candidate_index.memberships=number candidate_index.num_buckets=number
		candidate_index.occupancy=number candidate_index.resident_bytes=number
		candidate_index.rows=number candidate_index.signatures_e=number
		candidate_index.signatures_i=number candidate_index=object`)
	statsStoreTypes = strings.Fields(`
		storage.batches_logged=number storage.dir=string storage.fsync_interval_ms=number
		storage.last_snapshot_seq=number storage.last_snapshot_unix_ms=number
		storage.next_seq=number storage.records_logged=number storage.snapshots=number
		storage.wal_bytes_appended=number storage.wal_disk_bytes=number storage.wal_segments=number
		storage=object`)
	runsTypes = strings.Fields(`
		capacity=number count=number runs.candidate_pairs=number runs.dropped=number
		runs.duration_ms=number runs.full_rescore=bool runs.links=number runs.panicked=bool
		runs.rescored=number runs.retained=number runs.seq=number runs.short_circuit=bool
		runs.stages.apply_ms=number runs.stages.candidate_index_ms=number
		runs.stages.match_ms=number runs.stages.merge_ms=number runs.stages.rescore_ms=number
		runs.stages.threshold_ms=number runs.stages=object runs.start_unix_ms=number
		runs.trigger=string
		runs.version=number runs=array total_runs=number`)
	baseShapes = strings.Split(strings.TrimSpace(`
slim_edge_store_pairs gauge - Retained scored edges in the edge store.
slim_edge_store_resident_bytes gauge - Estimated resident bytes of the edge store (pair map and greedy order).
slim_entities gauge dataset Entities with applied histories, by dataset.
slim_health_state gauge domain Domain health: 1 healthy, 0 degraded (write path down, repair in progress).
slim_http_inflight_requests gauge - Requests currently being served.
slim_http_request_bytes_total counter - Request body bytes received (per declared Content-Length).
slim_http_request_seconds histogram le,route Request latency by route pattern.
slim_http_requests_total counter route,status Requests served, by route pattern and status code.
slim_http_response_bytes_total counter - Response body bytes written.
slim_ingest_accepted_batches_total counter - Ingest batches durably applied, across the binary and JSON routes.
slim_ingest_accepted_records_total counter - Ingest records durably applied, across the binary and JSON routes.
slim_ingest_acked_seq gauge - Latest acknowledged-and-buffered ingest batch sequence.
slim_ingest_inflight_records gauge - Admitted records not yet released (waiting on WAL durability).
slim_ingest_oldest_wait_seconds gauge - Age of the oldest record queued anywhere in the pipeline (the latency-budget input).
slim_ingest_queue_depth_limit gauge - Configured admission budget in resident records.
slim_ingest_shed_records_total counter - Records inside shed requests (nothing was logged or buffered).
slim_ingest_shed_requests_total counter cause Requests refused whole by admission control, by exceeded budget.
slim_ingest_to_visible_seconds histogram le Time from a batch's acknowledged ingest until a published relink made it link-visible.
slim_ingested_records_total counter dataset Records accepted since construction, by dataset.
slim_link_staleness_seconds gauge - Age of the oldest acknowledged batch not yet link-visible (0 when the pipeline is drained).
slim_link_version gauge - Version of the current published result.
slim_link_visible_seq gauge - Newest ingest batch sequence whose records are link-visible.
slim_links gauge - Links in the current published result.
slim_pending_oldest_seconds gauge - Age of the oldest buffered record awaiting a relink.
slim_pending_records gauge - Buffered records awaiting the next relink.
slim_relink_pairs_dropped_total counter - Edge-store pairs dropped since boot.
slim_relink_pairs_rescored_total counter - Candidate pairs rescored since boot.
slim_relink_pairs_retained_total counter - Edge-store pairs retained without rescoring since boot (scoring work avoided).
slim_relink_panics_total counter - Panics recovered in the relink path (failed runs and supervisor restarts).
slim_relink_runs_total counter - Completed relink runs (including short-circuited ones).
slim_relink_seconds histogram le Wall time of one complete relink run (drain, rescore, merge, match, threshold, publish).
slim_relink_short_circuits_total counter - Fully-clean relink runs that republished the cached result.
slim_relink_stage_seconds histogram le,stage Wall time of one relink stage (labelled); candidate_index is the incremental index update time inside rescore.
slim_relink_stuck_seconds gauge - How far the relink in flight is past its watchdog deadline (0 when idle or on time).
slim_run_journal_records gauge - Relink runs currently retained in the flight-recorder ring.
slim_threshold_fit_total counter result Stop-threshold selections, by whether the detector ran or the cached fit was reused bit-identically.`), "\n")
	storeShapes = strings.Split(strings.TrimSpace(`
slim_storage_last_snapshot_seq gauge - Last WAL sequence logged when the newest checkpoint was taken.
slim_storage_reopen_retries_total counter - Degraded-mode WAL reopen attempts (successful or not) since this process started.
slim_storage_snapshot_bytes gauge - Size of the file the newest checkpoint wrote.
slim_storage_snapshot_seconds histogram le Duration of one checkpoint: result capture, file write, and removal of the file it supersedes.
slim_storage_snapshots_total counter - Checkpoints completed by this process.
slim_wal_append_seconds histogram le Latency of one WAL append call (framed write, plus the fsync under the inline policy).
slim_wal_appended_bytes_total counter - WAL bytes appended since this process opened the directory.
slim_wal_batches_total counter - Record batches appended to the WAL since this process opened the directory.
slim_wal_fsync_seconds histogram le Latency of each WAL fsync, whichever policy issued it.
slim_wal_next_seq gauge - Sequence number the next logged batch will carry.
slim_wal_records_total counter - Records appended to the WAL since this process opened the directory.`), "\n")
)

// jsonTypesAll is jsonTypes over every element of every array, so a key
// that omitempty drops from the first element is still seen.
func jsonTypesAll(v any) []string {
	seen := map[string]bool{}
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		switch x := v.(type) {
		case map[string]any:
			for k, child := range x {
				seen[prefix+k+"="+jsonTypeName(child)] = true
				walk(prefix+k+".", child)
			}
		case []any:
			for _, el := range x {
				walk(prefix, el)
			}
		}
	}
	walk("", v)
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// The link-bearing wires, captured at PR 22 before /v1/links and
// /v1/explain were rendered from the linker's own structs: the JSON type
// of every key of a links page, a per-entity answer and an explain
// document (over every array element, so the omitempty keys count).
var (
	linksTypes = strings.Fields(`
		links.score=number links.u=string links.v=string links=array
		threshold=number total=number version=number`)
	linksForTypes = strings.Fields(`
		entity=string links.score=number links.u=string links.v=string links=array`)
	explainCoreTypes = strings.Fields(`
		e=string edge.last_full_seq=number edge.linked=bool edge.rescored_seq=number
		edge.retained_since_seq=number edge.score=number edge.score_at_last_full=number
		edge.store_epoch=number edge=object i=string
		run.candidate_pairs=number run.dropped=number run.duration_ms=number run.full_rescore=bool
		run.links=number run.panicked=bool run.rescored=number run.retained=number run.seq=number
		run.short_circuit=bool run.stages.apply_ms=number run.stages.candidate_index_ms=number
		run.stages.match_ms=number run.stages.merge_ms=number run.stages.rescore_ms=number
		run.stages.threshold_ms=number run.stages=object run.start_unix_ms=number
		run.trigger=string
		run.version=number run=object
		score.known=bool score.norm=number score.norm_u=number score.norm_v=number
		score.total=number score.windows.bins_u=number score.windows.bins_v=number
		score.windows.pairs.cell_u=string score.windows.pairs.cell_v=string
		score.windows.pairs.contribution=number score.windows.pairs.distance_km=number
		score.windows.pairs.idf_weight=number score.windows.pairs.proximity=number
		score.windows.pairs=array score.windows.sum=number score.windows.window=number
		score.windows=array score=object version=number`)
	explainLSHTypes = strings.Fields(`
		candidates.band_count=number candidates.candidate=bool
		candidates.collisions.band=number candidates.collisions.bucket_e=number
		candidates.collisions.bucket_i=number candidates.collisions.hash=string
		candidates.collisions=array candidates.has_u=bool candidates.has_v=bool
		candidates.rows=number candidates=object`)
	explainFlagTypes    = strings.Fields(`score.windows.pairs.alibi=bool score.windows.pairs.mfn=bool`)
	explainUnknownTypes = strings.Fields(`
		e=string edge.linked=bool edge.store_epoch=number edge=object i=string score.known=bool
		score.norm=number score.norm_u=number score.norm_v=number score.total=number score=object
		version=number`)
	explainUnknownLSHTypes = strings.Fields(`
		candidates.band_count=number candidates.candidate=bool candidates.has_u=bool
		candidates.has_v=bool candidates.rows=number candidates=object`)
)

var (
	hex16RE   = regexp.MustCompile(`^[0-9a-f]{16}$`)
	jsonKeyRE = regexp.MustCompile(`"([a-z_]+)":`)
	// The order keys first appear in an explain document, up to the run
	// block (whose keys are a map's): a struct's keys come out in
	// declaration order, so moving a tag moves the wire.
	explainKeyOrder = strings.Fields(`
		e i version score known norm_u norm_v norm total windows window bins_u bins_v sum pairs
		cell_u cell_v distance_km proximity idf_weight contribution`)
	explainLSHKeyOrder = strings.Fields(`
		candidates has_u has_v candidate band_count collisions band hash bucket_e bucket_i rows`)
	explainEdgeKeyOrder = strings.Fields(`
		edge linked rescored_seq retained_since_seq last_full_seq score_at_last_full store_epoch`)
)

// TestLinkWiresPinned holds GET /v1/links, GET /v1/links/{entity} and GET
// /v1/explain to the shapes above in the brute-force and the LSH
// configuration. An empty link list is the array [], never null, and the
// two 64-bit values that exceed 2^53 — cell ids and bucket hashes — are
// 16-digit hex strings.
func TestLinkWiresPinned(t *testing.T) {
	for _, lsh := range []bool{false, true} {
		t.Run(fmt.Sprintf("lsh=%v", lsh), func(t *testing.T) {
			cfg := slim.Defaults()
			if lsh {
				cfg.LSH = &slim.LSHConfig{Threshold: 0.2, StepWindows: 8, SpatialLevel: 12, NumBuckets: 1 << 10}
			}
			eng, err := engine.New(slim.Dataset{Name: "E"}, slim.Dataset{Name: "I"},
				engine.Config{Link: cfg, Debounce: time.Hour})
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(New(eng, nil).Handler())
			t.Cleanup(ts.Close)
			t.Cleanup(eng.Close)
			get := func(path string) (any, string) {
				t.Helper()
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				var buf bytes.Buffer
				if _, err := buf.ReadFrom(resp.Body); err != nil {
					t.Fatal(err)
				}
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("GET %s: %d %s", path, resp.StatusCode, buf.String())
				}
				var doc any
				if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
					t.Fatalf("GET %s: %v", path, err)
				}
				return doc, buf.String()
			}
			check := func(path string, doc any, want []string) {
				t.Helper()
				want = slices.Clone(want)
				sort.Strings(want)
				if got := jsonTypesAll(doc); !slices.Equal(got, want) {
					t.Errorf("GET %s value types changed:\n got %v\nwant %v", path, got, want)
				}
			}

			wantEmpty := func(path string) {
				t.Helper()
				doc, body := get(path)
				if l, ok := doc.(map[string]any)["links"].([]any); !ok || len(l) != 0 {
					t.Errorf("GET %s: %s, want \"links\": []", path, body)
				}
			}

			// A run that links nothing publishes an empty array.
			postJSON(t, ts.URL+"/v1/link", nil)
			for _, path := range []string{"/v1/links", "/v1/links/nobody"} {
				wantEmpty(path)
			}

			ground := slim.GenerateCab(slim.CabOptions{
				NumTaxis: 12, Days: 2, MeanRecordIntervalSec: 420, Seed: 31,
			})
			w := slim.SampleWorkload(&ground, slim.SampleOptions{
				IntersectionRatio: 0.6, InclusionProbE: 0.6, InclusionProbI: 0.6, Seed: 32,
			})
			for ds, recs := range map[string][]slim.Record{"e": w.E.Records, "i": w.I.Records} {
				if resp, body := postJSON(t, ts.URL+"/v1/datasets/"+ds+"/records",
					map[string]any{"records": toWire(recs)}); resp.StatusCode != http.StatusAccepted {
					t.Fatalf("ingest %s: %d %s", ds, resp.StatusCode, body)
				}
			}
			postJSON(t, ts.URL+"/v1/link", nil)

			page, _ := get("/v1/links")
			check("/v1/links", page, linksTypes)
			first := page.(map[string]any)["links"].([]any)[0].(map[string]any)
			u, v := first["u"].(string), first["v"].(string)

			known, _ := get("/v1/links/" + url.PathEscape(u))
			check("/v1/links/{entity}", known, linksForTypes)
			wantEmpty("/v1/links/nobody")
			wantEmpty("/v1/links?min_score=1e300")

			ex, exBody := get("/v1/explain?e=" + url.QueryEscape(u) + "&i=" + url.QueryEscape(v))
			var order []string
			for _, m := range jsonKeyRE.FindAllStringSubmatch(exBody[:strings.Index(exBody, `"run"`)], -1) {
				if !slices.Contains(order, m[1]) {
					order = append(order, m[1])
				}
			}
			wantOrder := slices.Concat(explainKeyOrder, explainEdgeKeyOrder)
			if lsh {
				wantOrder = slices.Concat(explainKeyOrder, explainLSHKeyOrder, explainEdgeKeyOrder)
			}
			if !slices.Equal(order, wantOrder) {
				t.Errorf("GET /v1/explain key order changed:\n got %v\nwant %v", order, wantOrder)
			}
			wantEx := explainCoreTypes
			if lsh {
				wantEx = append(slices.Clone(wantEx), explainLSHTypes...)
			}
			check("/v1/explain", ex, wantEx)
			// Two entities the matching did not pair carry the alibi / mfn terms
			// a link has none of; ids nobody ingested shrink every block to its
			// unconditional keys.
			v2 := page.(map[string]any)["links"].([]any)[1].(map[string]any)["v"].(string)
			crossed, _ := get("/v1/explain?e=" + url.QueryEscape(u) + "&i=" + url.QueryEscape(v2))
			check("/v1/explain (linked and unlinked pair)", []any{ex, crossed}, append(slices.Clone(wantEx), explainFlagTypes...))
			unknown, _ := get("/v1/explain?e=nobody&i=nobody")
			wantUnknown := explainUnknownTypes
			if lsh {
				wantUnknown = append(slices.Clone(wantUnknown), explainUnknownLSHTypes...)
			}
			check("/v1/explain (unknown ids)", unknown, wantUnknown)
			doc := ex.(map[string]any)
			var hexes []any
			for _, wb := range doc["score"].(map[string]any)["windows"].([]any) {
				for _, pc := range wb.(map[string]any)["pairs"].([]any) {
					hexes = append(hexes, pc.(map[string]any)["cell_u"], pc.(map[string]any)["cell_v"])
				}
			}
			if lsh {
				for _, bc := range doc["candidates"].(map[string]any)["collisions"].([]any) {
					hexes = append(hexes, bc.(map[string]any)["hash"])
				}
			}
			if len(hexes) == 0 {
				t.Fatal("explain document names no cell")
			}
			for _, h := range hexes {
				if s, _ := h.(string); !hex16RE.MatchString(s) {
					t.Fatalf("explain renders a 64-bit id as %v, want 16 hex digits", h)
				}
			}
		})
	}
}
