package server

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"slim"
	"slim/internal/engine"
	"slim/internal/ingest"
	"slim/internal/storage"
)

// TestWireEncoder pins the one encoder's conventions on small structs
// and on the real ones whose omitempty keys the wire depends on.
func TestWireEncoder(t *testing.T) {
	type inner struct {
		N int `json:"n"`
	}
	type Flat struct {
		A uint64 `json:"a"`
	}
	type doc struct {
		D       time.Duration `json:"d_ms"`
		At      time.Time     `json:"at_unix_ms"`
		Block   *inner        `json:"block,omitempty"`
		Note    string        `json:"note,omitempty"`
		Hidden  int           `json:"-"`
		Unnamed int
		Flat
		X time.Duration `json:"sub.x_ms"`
		Y bool          `json:"sub.y"`
	}
	at := time.UnixMilli(1_700_000_000_123)
	for _, tc := range []struct {
		name string
		in   any
		want string
	}{
		{"duration is ms truncated to the microsecond; zero time, nil block and empty omitempty vanish",
			doc{D: 1_234_567, Hidden: 7, Unnamed: 8},
			`{"a":0,"d_ms":1.234,"sub":{"x_ms":0,"y":false}}`},
		{"time is Unix ms; a block nests; an embedded struct flattens; a dotted tag nests",
			&doc{At: at, Block: &inner{N: 3}, Note: "n", Flat: Flat{A: 1 << 63}, X: 2 * time.Millisecond, Y: true},
			`{"a":9223372036854775808,"at_unix_ms":1700000000123,"block":{"n":3},"d_ms":0,"note":"n","sub":{"x_ms":2,"y":true}}`},
		{"a run record without a panic has no panic_msg, and its stages nest",
			engine.RunRecord{Seq: 2, Trigger: "manual", Start: at, Duration: 1_234_567, MergeDur: 1500},
			`{"candidate_pairs":0,"dropped":0,"duration_ms":1.234,"full_rescore":false,"links":0,"panicked":false,` +
				`"rescored":0,"retained":0,"seq":2,"short_circuit":false,"stages":{"apply_ms":0,"candidate_index_ms":0,` +
				`"match_ms":0,"merge_ms":0.001,"rescore_ms":0,"threshold_ms":0},"start_unix_ms":1700000000123,` +
				`"trigger":"manual","version":0}`},
		{"engine stats before the first run: no last_run_unix_ms, no layer blocks, totals at the top level",
			engine.Stats{SpatialLevel: 12, PendingOldestAge: time.Second, Totals: engine.Totals{Runs: 1, EdgeRescoredTotal: 9}},
			`{"entities_e":0,"entities_i":0,"ingested_e":0,"ingested_i":0,"links":0,"loop_restarts":0,"pending_records":0,` +
				`"relink_panics":0,"runs":1,"runs_short_circuited":0,"spatial_level":12,"threshold":0,"version":0}`},
		{"a layer block renders through its own tags",
			&slim.EdgeStoreStats{Pairs: 5, Rescored: 2, LastUpdate: 2500 * time.Microsecond},
			`{"dropped_last":0,"epoch":0,"full_rescore_last":false,"last_update_ms":2.5,"pairs":5,"rescored_last":2,` +
				`"resident_bytes":0,"retained_last":0}`},
		{"storage stats before the first checkpoint: no last_snapshot_unix_ms, no health fields",
			storage.Stats{Dir: "d", Health: "healthy", ReopenRetries: 3},
			`{"batches_logged":0,"dir":"d","fsync_interval_ms":0,"last_snapshot_seq":0,"next_seq":0,"records_logged":0,` +
				`"snapshots":0,"wal_bytes_appended":0,"wal_disk_bytes":0,"wal_segments":0}`},
	} {
		got, err := json.Marshal(wire(tc.in))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if string(got) != tc.want {
			t.Errorf("%s:\n got %s\nwant %s", tc.name, got, tc.want)
		}
	}
}

// TestEveryStatsFieldNamesItself walks every struct /v1/stats and /v1/runs
// are rendered from and fails on an exported field without a json tag — a
// wire name or an explicit "-" — so a fact cannot be added without deciding
// whether, and under which name, it is published.
func TestEveryStatsFieldNamesItself(t *testing.T) {
	seen := map[reflect.Type]bool{}
	var walk func(typ reflect.Type)
	walk = func(typ reflect.Type) {
		if typ.Kind() == reflect.Pointer {
			typ = typ.Elem()
		}
		if typ.Kind() != reflect.Struct || typ == reflect.TypeOf(time.Time{}) || seen[typ] {
			return
		}
		seen[typ] = true
		for i := range typ.NumField() {
			f := typ.Field(i)
			if !f.IsExported() {
				continue
			}
			if _, ok := f.Tag.Lookup("json"); !ok && !f.Anonymous {
				t.Errorf("%s.%s has no json tag: name it on the wire or tag it \"-\"", typ, f.Name)
			}
			walk(f.Type)
		}
	}
	for _, v := range []any{engine.Stats{}, engine.RunRecord{}, engine.JournalStats{}, ingest.Stats{}, storage.Stats{}} {
		walk(reflect.TypeOf(v))
	}
	if len(seen) < 9 {
		t.Errorf("walked %d struct types, want the five roots, engine.Totals and the three layer snapshots", len(seen))
	}
}
