// This file is /v1/explain's view of the kernel: the Breakdown types and
// the recorder through which ScoreBreakdown (here) and ProbeRatio
// (similarity.go) read one observed run of scoreWindow. It holds no pairing
// logic of its own.

package similarity

import (
	"math"

	"slim/internal/geo"
	"slim/internal/model"
)

// PairContribution is one bin pair's term in a window's score: the two
// cells, their distance, the proximity P (Eq. 1), the IDF weight (Eq. 3),
// and the exact normalized value added to the window sum
// (proximity × weight / norm). MFN marks terms contributed by the
// mutually-furthest-neighbor alibi pass; Alibi marks negative proximity.
// The json tags here and below are the keys of /v1/explain's score block,
// which encodes a Breakdown as it is (field order is wire order).
type PairContribution struct {
	CellU        geo.CellID `json:"cell_u"`
	CellV        geo.CellID `json:"cell_v"`
	DistanceKm   float64    `json:"distance_km"`
	Proximity    float64    `json:"proximity"`
	IDFWeight    float64    `json:"idf_weight"`
	Contribution float64    `json:"contribution"`
	Alibi        bool       `json:"alibi,omitempty"`
	MFN          bool       `json:"mfn,omitempty"`
}

// WindowBreakdown is the decomposition of one common temporal window:
// the bin pairs the pairing selected (in selection order — the exact
// order the kernel accumulated them) and their sum, which is
// bit-identical to the window's contribution inside Score.
type WindowBreakdown struct {
	// Window is the absolute leaf window index: the window covers
	// [Window·|w|, (Window+1)·|w|) of Unix time.
	Window int64 `json:"window"`
	// BinsU / BinsV count the two entities' time-location bins in this
	// window.
	BinsU int `json:"bins_u"`
	BinsV int `json:"bins_v"`
	// Sum is the window's total contribution as the kernel returned it;
	// Pairs' contributions added in order reproduce it bit for bit.
	Sum float64 `json:"sum"`
	// Pairs are the contributing bin pairs in accumulation order. The MFN
	// pass only appends pairs that actually contributed (negative,
	// non-selected), mirroring the kernel.
	Pairs []PairContribution `json:"pairs,omitempty"`
}

// Breakdown is the full decomposition of one Score(u, v) call. Total is
// what the observed kernel run returned; adding Windows[k].Sum in window
// order replicates its accumulation sequence exactly, so Total (and the
// re-summed window sums) equal Score(u, v) bit for bit — the property
// gated by TestScoreBreakdownRecomposesBitIdentically.
type Breakdown struct {
	U model.EntityID `json:"-"`
	V model.EntityID `json:"-"`
	// Known is false when either entity has no history (Score returns 0).
	Known bool `json:"known"`
	// NormU / NormV are the BM25-style length factors L(u), L(v) (1 when
	// normalization is disabled); Norm is the product actually divided by
	// (clamped to 1 when non-positive, exactly as in Score).
	NormU float64 `json:"norm_u"`
	NormV float64 `json:"norm_v"`
	Norm  float64 `json:"norm"`
	// Total is the score.
	Total float64 `json:"total"`
	// Windows decomposes every common temporal window, in window order.
	Windows []WindowBreakdown `json:"windows,omitempty"`
}

// ScoreBreakdown computes the full per-window decomposition of
// Score(u, v). It is the explainability slow path, and it is the kernel
// itself: one observed run of the code Score runs (same views, same pooled
// scratch, same distances, same sweeps) with a recorder attached, so
// Total and every window Sum are the values that run returned and each
// pair is a term it added — bit-identical to Score(u, v) by construction.
// Unlike Score it allocates (the recorded windows and pairs), and it
// leaves the scorer's work counters untouched: calling it never perturbs
// Stats().
func (s *Scorer) ScoreBreakdown(u, v model.EntityID) *Breakdown {
	bd := &Breakdown{U: u, V: v, NormU: 1, NormV: 1, Norm: 1}
	var pv pairViews
	if !s.fetchByID(&pv, u, v) {
		return bd
	}
	bd.Known = true
	bd.NormU, bd.NormV, bd.Norm = pv.lu, pv.lv, pv.norm
	rec := recorder{par: &s.Par, pv: &pv}
	bd.Total = s.run(&s.Par, &pv, &rec)
	bd.Windows = rec.windows
	return bd
}

// recorder is how ScoreBreakdown and ProbeRatio read the kernel (see run
// and scoreWindow): a common window is opened before its pairing, receives
// every term in accumulation order, and is closed with the sum the kernel
// returned for it. Scoring passes a nil recorder; the methods are kept out
// of line so that path carries only the nil checks.
type recorder struct {
	par *Params
	pv  *pairViews
	// loU / loV are the open window's first bin in each view.
	loU, loV int32
	windows  []WindowBreakdown
}

//go:noinline
func (r *recorder) open(ku, kv int) {
	cu, cv := &r.pv.cu, &r.pv.cv
	r.loU, r.loV = cu.Off[ku], cv.Off[kv]
	r.windows = append(r.windows, WindowBreakdown{
		Window: cu.Windows[ku],
		BinsU:  int(cu.Off[ku+1] - r.loU),
		BinsV:  int(cv.Off[kv+1] - r.loV),
	})
}

//go:noinline
func (r *recorder) close(sum float64) {
	r.windows[len(r.windows)-1].Sum = sum
}

// term records the open window's bin pair (i, j), which the kernel just
// added contribution for. Proximity and weight are re-derived from the
// distance and IDF weights the kernel's delta read — the same pure
// functions of the same inputs.
func (r *recorder) term(i, j int, distKm, contribution float64, mfn bool) {
	pv := r.pv
	bu, bv := int(r.loU)+i, int(r.loV)+j
	p := Proximity(distKm, r.par.RunawayKm)
	weight := 1.0
	if r.par.UseIDF {
		weight = math.Min(pv.cu.IDFByDF[pv.cu.DF[bu]], pv.cv.IDFByDF[pv.cv.DF[bv]])
	}
	wb := &r.windows[len(r.windows)-1]
	wb.Pairs = append(wb.Pairs, PairContribution{
		CellU:        pv.geomU[pv.cu.Cells[bu]].ID,
		CellV:        pv.geomV[pv.cv.Cells[bv]].ID,
		DistanceKm:   distKm,
		Proximity:    p,
		IDFWeight:    weight,
		Contribution: contribution,
		Alibi:        p < 0,
		MFN:          mfn,
	})
}
