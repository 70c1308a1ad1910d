package server

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
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

// Key blocks of /v1/stats, composed per configuration below.
var (
	statsCoreKeys = strings.Fields(`
		edge_store edge_store.dropped_last edge_store.dropped_total edge_store.epoch
		edge_store.full_rescore_last edge_store.last_update_ms edge_store.pairs
		edge_store.rescored_last edge_store.rescored_total edge_store.resident_bytes
		edge_store.retained_last edge_store.retained_total
		entities_e entities_i
		ingest ingest.accepted_batches ingest.accepted_records ingest.inflight_records
		ingest.oldest_wait_ms ingest.pending_records ingest.queue_depth ingest.retry_after_ms
		ingest.shed_after_ms ingest.shed_latency ingest.shed_queue_depth ingest.shed_records
		ingest.shed_requests
		ingested_e ingested_i last_run_unix_ms links loop_restarts pending_records
		publish_tail publish_tail.applies_total publish_tail.edges publish_tail.full_rebuilds_total
		publish_tail.last_full_rebuild publish_tail.last_match_ms publish_tail.last_threshold_ms
		publish_tail.last_update_ms publish_tail.matched publish_tail.reused_prefix_len
		publish_tail.suffix_walked publish_tail.threshold_fits_total publish_tail.threshold_reuses_total
		relink_panics
		run_journal run_journal.capacity run_journal.records run_journal.total_runs
		runs runs_short_circuited spatial_level threshold version`)
	statsLSHKeys = strings.Fields(`
		candidate_index candidate_index.bands candidate_index.buckets candidate_index.candidates
		candidate_index.dirty_entities_last candidate_index.epoch candidate_index.last_rebuild
		candidate_index.last_update_ms candidate_index.memberships candidate_index.num_buckets
		candidate_index.occupancy candidate_index.rows candidate_index.signature_len
		candidate_index.signatures_e candidate_index.signatures_i`)
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
		runs.start_unix_ms runs.tail_full_rebuild runs.tail_reused_prefix runs.trigger
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
		slim_publish_tail_applies_total slim_publish_tail_edges slim_publish_tail_full_rebuilds_total
		slim_publish_tail_reused_prefix_len slim_publish_tail_suffix_walked
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
		})
	}
}
