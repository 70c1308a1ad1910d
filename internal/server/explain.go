package server

// This file holds the provenance endpoints: GET /v1/explain joins the
// three explainability layers (score decomposition, candidate lineage,
// edge lineage) plus the journal entry of the run that produced the edge
// into one document; GET /v1/runs pages through the relink flight
// recorder.

import (
	"net/http"

	"slim"
)

// explainResponse is the one-stop provenance document for a pair: the
// linker's three provenance blocks as their structs name them (score,
// candidates — absent when the engine runs brute force and there is no
// filter lineage to report — and edge), after the query's ids and the
// published version.
type explainResponse struct {
	E       string `json:"e"`
	I       string `json:"i"`
	Version uint64 `json:"version"`
	slim.PairExplanation
	// Run is the flight-recorder entry of the run that last rescored the
	// pair, when it is still in the ring (an engine.RunRecord, see wire).
	Run map[string]any `json:"run,omitempty"`
}

func (s *Server) handleExplain(w http.ResponseWriter, req *http.Request) {
	q := req.URL.Query()
	u, v := q.Get("e"), q.Get("i")
	if u == "" || v == "" {
		s.error(w, req, http.StatusBadRequest, "both e and i query parameters are required")
		return
	}
	ex := s.eng.Explain(slim.EntityID(u), slim.EntityID(v))
	resp := explainResponse{E: u, I: v, Version: ex.Version, PairExplanation: ex.PairExplanation}
	if ex.Run != nil {
		resp.Run = wire(ex.Run)
	}
	s.json(w, http.StatusOK, resp)
}

// defaultRunsLimit caps an unpaginated /v1/runs answer.
const defaultRunsLimit = 50

type runsResponse struct {
	// TotalRuns counts runs ever recorded (including entries the ring has
	// already overwritten); Capacity is the ring size.
	TotalRuns uint64           `json:"total_runs"`
	Capacity  int              `json:"capacity"`
	Count     int              `json:"count"`
	Runs      []map[string]any `json:"runs"`
}

func (s *Server) handleRuns(w http.ResponseWriter, req *http.Request) {
	q := req.URL.Query()
	limit, err := intParam(q.Get("limit"), defaultRunsLimit)
	if err != nil {
		s.error(w, req, http.StatusBadRequest, "bad limit")
		return
	}
	offset, err := intParam(q.Get("offset"), 0)
	if err != nil {
		s.error(w, req, http.StatusBadRequest, "bad offset")
		return
	}
	recs, total := s.eng.Runs(limit, offset)
	resp := runsResponse{
		TotalRuns: total,
		Capacity:  s.eng.RunJournal().Capacity,
		Count:     len(recs),
		Runs:      make([]map[string]any, 0, len(recs)),
	}
	for _, r := range recs {
		resp.Runs = append(resp.Runs, wire(r))
	}
	s.json(w, http.StatusOK, resp)
}
