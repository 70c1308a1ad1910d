#!/usr/bin/env bash
# check_chaos.sh — the fault-injection gate CI runs on every change.
#
# Runs both chaos suites and the retry tests under the race detector:
#   * TestServerChaos  — in-process: a fixed-seed randomized fault
#     schedule (disk errors, write delays, relink panics) against a live
#     node under concurrent JSON + binary ingest; once healed, every
#     acked batch link-visible with no manual relink, then an exact WAL
#     audit: every acked batch durable, every rejected batch absent.
#   * TestCLISlimdChaos — through the compiled slimd binary via the
#     -fault flag: the degraded-mode 503 contract, self-healing, a
#     contained relink panic, and crash recovery to exactly the acked
#     batches.
#   * the contract that acknowledged work drains: a failed run retries at
#     the debounce with no further ingest (TestFailedRunRetriesWithoutIngest,
#     TestPermanentFailureRetriesAtTheDebounce), and drained but
#     unpublished records stay on the latency budget
#     (TestAdmitCountsDrainedUnpublished).
#
# Both chaos schedules are seed-fixed, so a failure there replays exactly.
#
# Usage: scripts/check_chaos.sh  (from the repo root; CI runs it there)
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== in-process chaos suite (race detector on)"
go test -race -count=1 -run 'TestServerChaos' ./internal/server/

echo "== slimd binary chaos suite (race detector on)"
go test -race -count=1 -run 'TestCLISlimdChaos' ./cmd/

echo "== failed-run retry and latency-budget tests (race detector on)"
go test -race -count=1 -run 'TestFailedRunRetriesWithoutIngest|TestPermanentFailureRetriesAtTheDebounce' ./internal/engine/
go test -race -count=1 -run 'TestAdmitCountsDrainedUnpublished' ./internal/ingest/

echo "OK: chaos suites passed"
