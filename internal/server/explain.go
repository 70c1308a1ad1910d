package server

// This file holds the provenance endpoints: GET /v1/explain joins the
// three explainability layers (score decomposition, candidate lineage,
// edge lineage) plus the journal entry of the run that produced the edge
// into one document; GET /v1/runs pages through the relink flight
// recorder.

import (
	"fmt"
	"net/http"

	"slim"
)

// cellHex renders a 64-bit cell or bucket hash as a hex string: the
// values exceed 2^53, so emitting them as JSON numbers would silently
// lose precision in JavaScript consumers.
func cellHex(v uint64) string { return fmt.Sprintf("%016x", v) }

// pairContributionJSON is one bin pair's term in a window's score.
type pairContributionJSON struct {
	CellU        string  `json:"cell_u"`
	CellV        string  `json:"cell_v"`
	DistanceKm   float64 `json:"distance_km"`
	Proximity    float64 `json:"proximity"`
	IDFWeight    float64 `json:"idf_weight"`
	Contribution float64 `json:"contribution"`
	Alibi        bool    `json:"alibi,omitempty"`
	MFN          bool    `json:"mfn,omitempty"`
}

type windowBreakdownJSON struct {
	Window int64                  `json:"window"`
	BinsU  int                    `json:"bins_u"`
	BinsV  int                    `json:"bins_v"`
	Sum    float64                `json:"sum"`
	Pairs  []pairContributionJSON `json:"pairs,omitempty"`
}

type breakdownJSON struct {
	Known   bool                  `json:"known"`
	NormU   float64               `json:"norm_u"`
	NormV   float64               `json:"norm_v"`
	Norm    float64               `json:"norm"`
	Total   float64               `json:"total"`
	Windows []windowBreakdownJSON `json:"windows,omitempty"`
}

type bandCollisionJSON struct {
	Band    int    `json:"band"`
	Hash    string `json:"hash"`
	BucketE int    `json:"bucket_e"`
	BucketI int    `json:"bucket_i"`
}

type candidateExplainJSON struct {
	HasU         bool                `json:"has_u"`
	HasV         bool                `json:"has_v"`
	Candidate    bool                `json:"candidate"`
	BandCount    int32               `json:"band_count"`
	Collisions   []bandCollisionJSON `json:"collisions,omitempty"`
	Epoch        uint64              `json:"epoch"`
	SignatureLen int                 `json:"signature_len"`
	Bands        int                 `json:"bands"`
	Rows         int                 `json:"rows"`
	SigVersionU  uint64              `json:"sig_version_u,omitempty"`
	SigVersionV  uint64              `json:"sig_version_v,omitempty"`
}

type edgeLineageJSON struct {
	Linked           bool    `json:"linked"`
	Score            float64 `json:"score,omitempty"`
	RescoredSeq      uint64  `json:"rescored_seq,omitempty"`
	RetainedSinceSeq uint64  `json:"retained_since_seq,omitempty"`
	LastFullSeq      uint64  `json:"last_full_seq,omitempty"`
	ScoreAtLastFull  float64 `json:"score_at_last_full,omitempty"`
	StoreEpoch       uint64  `json:"store_epoch"`
}

// explainResponse is the one-stop provenance document for a pair.
type explainResponse struct {
	E       string        `json:"e"`
	I       string        `json:"i"`
	Version uint64        `json:"version"`
	Score   breakdownJSON `json:"score"`
	// Candidates is omitted when the engine runs brute force (every pair
	// is a candidate; there is no filter lineage to report).
	Candidates *candidateExplainJSON `json:"candidates,omitempty"`
	Edge       edgeLineageJSON       `json:"edge"`
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
	resp := explainResponse{
		E:       u,
		I:       v,
		Version: ex.Version,
		Edge: edgeLineageJSON{
			Linked:           ex.Edge.Linked,
			Score:            ex.Edge.Score,
			RescoredSeq:      ex.Edge.RescoredSeq,
			RetainedSinceSeq: ex.Edge.RetainedSinceSeq,
			LastFullSeq:      ex.Edge.LastFullSeq,
			ScoreAtLastFull:  ex.Edge.ScoreAtLastFull,
			StoreEpoch:       ex.Edge.StoreEpoch,
		},
	}
	if bd := ex.Breakdown; bd != nil {
		resp.Score = breakdownJSON{
			Known: bd.Known,
			NormU: bd.NormU,
			NormV: bd.NormV,
			Norm:  bd.Norm,
			Total: bd.Total,
		}
		for _, wb := range bd.Windows {
			wj := windowBreakdownJSON{
				Window: wb.Window,
				BinsU:  wb.BinsU,
				BinsV:  wb.BinsV,
				Sum:    wb.Sum,
			}
			for _, pc := range wb.Pairs {
				wj.Pairs = append(wj.Pairs, pairContributionJSON{
					CellU:        cellHex(uint64(pc.CellU)),
					CellV:        cellHex(uint64(pc.CellV)),
					DistanceKm:   pc.DistanceKm,
					Proximity:    pc.Proximity,
					IDFWeight:    pc.IDFWeight,
					Contribution: pc.Contribution,
					Alibi:        pc.Alibi,
					MFN:          pc.MFN,
				})
			}
			resp.Score.Windows = append(resp.Score.Windows, wj)
		}
	}
	if ce := ex.Candidates; ce != nil {
		cj := &candidateExplainJSON{
			HasU:         ce.HasU,
			HasV:         ce.HasV,
			Candidate:    ce.Candidate,
			BandCount:    ce.BandCount,
			Epoch:        ce.Epoch,
			SignatureLen: ce.SignatureLen,
			Bands:        ce.Bands,
			Rows:         ce.Rows,
			SigVersionU:  ce.SigVersionU,
			SigVersionV:  ce.SigVersionV,
		}
		for _, bc := range ce.Collisions {
			cj.Collisions = append(cj.Collisions, bandCollisionJSON{
				Band:    bc.Band,
				Hash:    cellHex(bc.Hash),
				BucketE: bc.BucketE,
				BucketI: bc.BucketI,
			})
		}
		resp.Candidates = cj
	}
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
