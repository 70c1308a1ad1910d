#!/usr/bin/env bash
# check_metrics.sh — e2e smoke of the /metrics plane against a real slimd.
#
# Builds slimd, boots it empty on a loopback port, ingests one batch,
# forces a relink, scrapes GET /metrics, and validates that:
#   * the exposition parses (every line is a comment or name{labels} value),
#   * the families only the slimd binary registers (build info, Go
#     runtime) are declared with # TYPE — the rest are pinned in Go by
#     internal/server's TestWireSurfacesPinned,
#   * the freshness pipeline moved (ingest_to_visible count > 0) and
#     drained (staleness ~0), and the latency budget's input, which reads
#     the same tracker, drained with it (oldest wait ~0).
#
# Usage: scripts/check_metrics.sh  (from the repo root; CI runs it there)
set -euo pipefail

cd "$(dirname "$0")/.."
workdir="$(mktemp -d)"
slimd_pid=""
cleanup() {
  if [ -n "$slimd_pid" ]; then
    kill "$slimd_pid" 2>/dev/null || true
    wait "$slimd_pid" 2>/dev/null || true
  fi
  rm -rf "$workdir" 2>/dev/null || true
}
trap cleanup EXIT

echo "== building slimd"
go build -o "$workdir/slimd" ./cmd/slimd

echo "== booting slimd"
# -data-dir: the storage families (health, reopen retries) only register
# when a store is attached.
"$workdir/slimd" -addr 127.0.0.1:0 -debounce 50ms \
  -data-dir "$workdir/data" \
  >"$workdir/slimd.log" 2>&1 &
slimd_pid=$!

# The bound address is in the structured "listening" log line (addr=...).
addr=""
for _ in $(seq 1 100); do
  addr="$(sed -n 's/.*msg=listening .*addr=\([^ ]*\).*/\1/p' "$workdir/slimd.log" | head -n1)"
  [ -n "$addr" ] && break
  kill -0 "$slimd_pid" 2>/dev/null || { echo "slimd died:"; cat "$workdir/slimd.log"; exit 1; }
  sleep 0.1
done
[ -n "$addr" ] || { echo "slimd never logged its address"; cat "$workdir/slimd.log"; exit 1; }
base="http://$addr"
echo "   serving on $base"

for _ in $(seq 1 100); do
  curl -fsS "$base/readyz" >/dev/null 2>&1 && break
  sleep 0.1
done

echo "== ingesting one batch and relinking"
curl -fsS -X POST -H 'Content-Type: application/json' \
  -d '{"records":[{"entity":"m1","lat":40.7,"lng":-74.0,"unix":1700000000},{"entity":"m1","lat":40.8,"lng":-74.1,"unix":1700000600}]}' \
  "$base/v1/datasets/e/records" >/dev/null
# Mirror the trajectory into dataset i so (m1, m1) links — the provenance
# round trip below needs a pair with a real edge and score decomposition.
# A second entity on a different route makes the IDF weights positive
# (cells seen by every entity weigh log(N/df) = 0).
curl -fsS -X POST -H 'Content-Type: application/json' \
  -d '{"records":[{"entity":"m2","lat":41.2,"lng":-73.5,"unix":1700000000},{"entity":"m2","lat":41.3,"lng":-73.6,"unix":1700000600}]}' \
  "$base/v1/datasets/e/records" >/dev/null
curl -fsS -X POST -H 'Content-Type: application/json' \
  -d '{"records":[{"entity":"m1","lat":40.7,"lng":-74.0,"unix":1700000030},{"entity":"m1","lat":40.8,"lng":-74.1,"unix":1700000630},{"entity":"m2","lat":41.2,"lng":-73.5,"unix":1700000030},{"entity":"m2","lat":41.3,"lng":-73.6,"unix":1700000630}]}' \
  "$base/v1/datasets/i/records" >/dev/null
curl -fsS -X POST "$base/v1/link" >/dev/null

echo "== scraping /metrics"
metrics="$workdir/metrics.txt"
curl -fsS "$base/metrics" >"$metrics"

echo "== validating exposition format"
# Every line must be a HELP/TYPE comment or "name[{labels}] value".
# Label values are quoted strings that may themselves contain '{' or '}'
# (e.g. route="POST /v1/datasets/{dataset}/records"), so the label
# matcher must track quotes, not just scan to the first brace.
lv='(\\.|[^"\\])*'
label="[a-zA-Z_][a-zA-Z0-9_]*=\"$lv\""
sample="^[a-zA-Z_:][a-zA-Z0-9_:]*(\{($label(,$label)*)?\})? (NaN|[+-]?Inf|[-+0-9.eE]+)\$"
bad="$(grep -Ev "^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]*( .*)?\$|$sample|^\$" "$metrics" || true)"
if [ -n "$bad" ]; then
  echo "malformed exposition lines:"
  echo "$bad"
  exit 1
fi

echo "== checking the families only a booted slimd registers"
# Every family the engine, server, ingest plane and store register is
# pinned by name, kind, label keys and help in internal/server's
# TestWireSurfacesPinned; cmd/slimd adds these on top.
required='
slim_build_info
slim_go_goroutines
slim_go_heap_alloc_bytes
slim_go_gc_pause_total_seconds
slim_go_heap_live_bytes
slim_go_heap_goal_bytes
slim_go_memory_limit_bytes
slim_go_gc_cpu_seconds_total
'
missing=0
for name in $required; do
  if ! grep -q "^# TYPE $name " "$metrics"; then
    echo "missing family: $name"
    missing=1
  fi
done
[ "$missing" -eq 0 ] || exit 1

echo "== round-tripping the provenance endpoints"
explain="$workdir/explain.json"
curl -fsS "$base/v1/explain?e=m1&i=m1" >"$explain"
grep -q '"rescored_seq"' "$explain" \
  || { echo "/v1/explain missing edge lineage:"; cat "$explain"; exit 1; }
grep -q '"windows"' "$explain" \
  || { echo "/v1/explain missing score decomposition:"; cat "$explain"; exit 1; }
runs="$workdir/runs.json"
curl -fsS "$base/v1/runs?limit=5" >"$runs"
grep -q '"total_runs"' "$runs" && grep -q '"trigger"' "$runs" \
  || { echo "/v1/runs missing journal records:"; cat "$runs"; exit 1; }
# Parameter validation must reject a half-specified pair.
code="$(curl -s -o /dev/null -w '%{http_code}' "$base/v1/explain?e=m1")"
[ "$code" = "400" ] || { echo "/v1/explain without i returned $code, want 400"; exit 1; }

echo "== checking the freshness pipeline moved and drained"
count="$(sed -n 's/^slim_ingest_to_visible_seconds_count \(.*\)$/\1/p' "$metrics")"
stale="$(sed -n 's/^slim_link_staleness_seconds \(.*\)$/\1/p' "$metrics")"
wait_s="$(sed -n 's/^slim_ingest_oldest_wait_seconds \(.*\)$/\1/p' "$metrics")"
awk -v c="$count" 'BEGIN { exit !(c+0 >= 1) }' \
  || { echo "slim_ingest_to_visible_seconds_count=$count, want >= 1"; exit 1; }
awk -v s="$stale" 'BEGIN { exit !(s+0 < 1) }' \
  || { echo "slim_link_staleness_seconds=$stale, want ~0 after quiesce"; exit 1; }
awk -v w="$wait_s" 'BEGIN { exit !(w != "" && w+0 < 1) }' \
  || { echo "slim_ingest_oldest_wait_seconds=$wait_s, want ~0 after quiesce"; exit 1; }

echo "OK: /metrics serves $(grep -c '^# TYPE ' "$metrics") families; ingest_to_visible_count=$count staleness=$stale oldest_wait=$wait_s"
