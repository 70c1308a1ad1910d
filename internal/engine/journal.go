package engine

import "time"

// RunRecord is one flight-recorder entry: everything the engine knew
// about one relink run at the moment it finished — what triggered it,
// how much dirty work it found, what the stages cost, and whether it
// short-circuited, fully rescored, or panicked. Records are written for
// every run, including zero-work short circuits and contained panics,
// so the journal replays the engine's recent decision history exactly.
// The json tags are the keys of a /v1/runs entry (internal/server's wire
// encoder: a Duration prints as milliseconds, Start as Unix milliseconds,
// and the "stages." prefix nests the six stage times in one object).
type RunRecord struct {
	// Seq is the run's sequence number (monotonic per engine). Version is
	// the result version the run left published: one above the previous
	// run's when the run published, unchanged when it short-circuited or
	// panicked. Versions trail Seq by the runs that published nothing, and
	// a RestoreResult moves the version without any run.
	Seq     uint64 `json:"seq"`
	Version uint64 `json:"version"`
	// Trigger names what started the run: "manual" (Run call) or
	// "background" (debounce loop).
	Trigger string `json:"trigger"`
	// Start / Duration are the run's wall-clock bounds.
	Start    time.Time     `json:"start_unix_ms"`
	Duration time.Duration `json:"duration_ms"`
	// ShortCircuit reports the zero-work fast path (nothing drained, no
	// forced work — the cached result republished, no relink).
	ShortCircuit bool `json:"short_circuit"`
	// FullRescore reports whether the run rescored the whole candidate
	// set (first run, IDF-epoch move, or the run after a contained panic)
	// instead of the dirty pairs only. The candidate index never forces
	// one: it hands every run an exact delta.
	FullRescore bool `json:"full_rescore"`
	// Panicked / PanicMsg record a contained panic (the engine degrades
	// rather than crashing; see Engine.Run).
	Panicked bool   `json:"panicked"`
	PanicMsg string `json:"panic_msg,omitempty"`
	// Rescored / Retained / Dropped are the run's edge-store delta and
	// CandidatePairs the pairs it considered (all zero when it did no
	// rescoring); Links counts the links published when it finished.
	Rescored       int64 `json:"rescored"`
	Retained       int64 `json:"retained"`
	Dropped        int64 `json:"dropped"`
	CandidatePairs int64 `json:"candidate_pairs"`
	Links          int64 `json:"links"`
	// TailFullRebuild and TailReusedPrefix stay only because the
	// read-only cmd/slim-bench reads them (ROADMAP item 8): Publish walks
	// every edge from scratch, so TailFullRebuild is FullRescore, the one
	// update that sorts the edge store's whole order, and TailReusedPrefix
	// is 0. Neither is on the wire.
	TailFullRebuild  bool `json:"-"`
	TailReusedPrefix int  `json:"-"`
	// Per-stage wall-clock durations, one per slim_relink_stage_seconds
	// label; IndexDur is a subset of RescoreDur.
	ApplyDur     time.Duration `json:"stages.apply_ms"`
	IndexDur     time.Duration `json:"stages.candidate_index_ms"`
	RescoreDur   time.Duration `json:"stages.rescore_ms"`
	MergeDur     time.Duration `json:"stages.merge_ms"`
	MatchDur     time.Duration `json:"stages.match_ms"`
	ThresholdDur time.Duration `json:"stages.threshold_ms"`

	// The rest of the run's work — last-run facts /v1/stats reports and
	// /v1/runs does not: entity signatures the candidate index recomputed,
	// and the edge store's and Publish's own wall times.
	indexDirty       int
	edgeDur, tailDur time.Duration
	// mark is the freshness watermark taken before the run drained: the
	// ack sequence the run makes link-visible if it does not fail.
	mark uint64
	// layers are the linker-side snapshots as of this run (see layers).
	layers *layers
}

// stages returns the per-stage durations in stageNames order.
func (r *RunRecord) stages() [len(stageNames)]time.Duration {
	return [...]time.Duration{r.ApplyDur, r.IndexDur, r.RescoreDur, r.MergeDur, r.MatchDur, r.ThresholdDur}
}

// journal is a bounded ring of the engine's most recent RunRecords — the
// relink flight recorder. It grows as runs arrive until it holds size of
// them; from then on appends overwrite the oldest entry, so its memory is
// bounded by the ring however long the engine runs, and an engine that
// runs a few times holds a few records, not size. The engine's mu guards
// it.
type journal struct {
	buf  []RunRecord
	size int
	next int
}

func newJournal(size int) journal {
	if size <= 0 {
		size = DefaultRunJournal
	}
	return journal{size: size}
}

func (j *journal) add(r RunRecord) {
	if len(j.buf) < j.size {
		j.buf = append(j.buf, r)
	} else {
		j.buf[j.next] = r
	}
	j.next = (j.next + 1) % j.size
}

// snapshot returns up to limit records, newest first, skipping offset
// newest records — the pagination contract of /v1/runs.
func (j *journal) snapshot(limit, offset int) (recs []RunRecord) {
	n := len(j.buf)
	if limit <= 0 || limit > n {
		limit = n
	}
	if offset < 0 {
		offset = 0
	}
	for k := offset; k < n && len(recs) < limit; k++ {
		// Newest entry is at next-1, wrapping backwards.
		idx := (j.next - 1 - k + 2*n) % n
		recs = append(recs, j.buf[idx])
	}
	return recs
}

// byVersion returns the journal entry of the run that published version v
// (the "run that produced it" join behind /v1/explain), or false when it
// has aged out of the ring. Short circuits and panicked runs carry the
// version they left standing, not one they produced, so they never match;
// at most one run publishes any version.
func (j *journal) byVersion(v uint64) (RunRecord, bool) {
	for _, r := range j.buf {
		if r.Version == v && !r.ShortCircuit && !r.Panicked {
			return r, true
		}
	}
	return RunRecord{}, false
}
