// Package history implements SLIM's mobility-history representation
// (Sec. 2.3): per entity, the ordered set of time-location bins — fixed-width
// time windows holding spatial grid-cell ids with record weights — laid out
// as flat sorted columns. The dominating-grid-cell range queries that drive
// the LSH signatures (Sec. 4) are a binary search plus a scan of the range's
// contiguous bins; the paper's Fig. 1 segment tree is deliberately not
// materialized (DESIGN.md §5).
//
// A Store holds the histories of one location dataset together with the
// dataset-level statistics the similarity score needs: the bin→entity
// frequency index behind the IDF component (Eq. 3) — itself sorted columns,
// one pair per window (freq.go) — and the average history size behind the
// BM25-style length normalization (Eq. 2).
//
// Each fact is stored once. A history's columns are the only copy of its
// windows, offsets and weights: the compiled scoring views (compiled.go)
// point at them and add only what scoring derives — interned cells, baked
// IDF weights, per-window sums.
//
// Entities are numbered. Each linkage side has one append-only entity
// table (Ordinals: EntityID ↔ uint32), shared by the side's scoring store
// and its signature store; a store's histories and compiled views are
// slices indexed by ordinal, and the *At accessors take one. That is what
// lets every pair-scale structure downstream — the candidate index, the
// scorer's hot entry point, the edge store — refer to an entity in four
// bytes and never hash its id; the EntityID accessors here resolve an id
// once and delegate (DESIGN.md §5.7).
package history

import (
	"cmp"
	"math"
	"slices"
	"sync"

	"slim/internal/geo"
	"slim/internal/model"
	"slim/internal/par"
)

// Bin is a time-location bin: one leaf entry of a mobility history.
type Bin struct {
	Window int64
	Cell   geo.CellID
}

// History is the mobility history of a single entity, stored as columns
// sorted by (window, cell): window k = windows[k] owns the bins
// cells/counts[off[k]:off[k+1]], cells ascending. len(off) is always
// len(windows)+1.
type History struct {
	Entity model.EntityID

	windows []int64
	off     []int32
	cells   []geo.CellID
	counts  []float64
	numRecs int

	// version counts mutations of this history; the compiled read path
	// (compiled.go) uses it to detect stale per-entity views.
	version uint64
}

// binWeight is one (bin, weight) contribution of a record.
type binWeight struct {
	Bin
	weight float64
}

// appendBinWeights appends the record's bin contributions: a point record
// adds weight 1 to its containing cell; a region record (RadiusKm > 0) is
// copied into every cell covering the region, each receiving an equal
// fraction of the record's unit weight (the Sec. 2.1 extension).
func appendBinWeights(dst []binWeight, r model.Record, win int64, level int) []binWeight {
	if r.RadiusKm <= 0 {
		cell := geo.CellIDFromLatLngLevel(r.LatLng, level)
		return append(dst, binWeight{Bin{Window: win, Cell: cell}, 1})
	}
	cover := geo.CoverCapCells(r.LatLng, r.RadiusKm, level)
	weight := 1 / float64(len(cover))
	for _, cell := range cover {
		dst = append(dst, binWeight{Bin{Window: win, Cell: cell}, weight})
	}
	return dst
}

// newHistory builds a history from an entity's records: every contribution
// is collected, sorted once by (window, cell), and folded into exactly
// sized columns. The sort is stable, so the weights of one bin are summed
// in record order — the order Store.Add sums them in. The contributions
// are collected in scratch, which is returned (possibly grown) for the
// caller's next history; nothing of it is retained.
func newHistory(entity model.EntityID, recs []model.Record, w model.Windowing, level int, scratch []binWeight) (*History, []binWeight) {
	bws := scratch[:0]
	for _, r := range recs {
		bws = appendBinWeights(bws, r, w.Window(r.Unix), level)
	}
	slices.SortStableFunc(bws, func(a, b binWeight) int {
		return cmp.Or(cmp.Compare(a.Window, b.Window), cmp.Compare(a.Cell, b.Cell))
	})
	nWin, nBin := 0, 0
	for i, b := range bws {
		if i == 0 || b.Window != bws[i-1].Window {
			nWin++
		}
		if i == 0 || b.Bin != bws[i-1].Bin {
			nBin++
		}
	}
	h := &History{
		Entity:  entity,
		windows: make([]int64, 0, nWin),
		off:     make([]int32, 0, nWin+1),
		cells:   make([]geo.CellID, 0, nBin),
		counts:  make([]float64, 0, nBin),
		numRecs: len(recs),
	}
	for i, b := range bws {
		if i > 0 && b.Bin == bws[i-1].Bin {
			h.counts[len(h.counts)-1] += b.weight
			continue
		}
		if i == 0 || b.Window != bws[i-1].Window {
			h.windows = append(h.windows, b.Window)
			h.off = append(h.off, int32(len(h.cells)))
		}
		h.cells = append(h.cells, b.Cell)
		h.counts = append(h.counts, b.weight)
	}
	h.off = append(h.off, int32(len(h.cells)))
	return h, bws
}

// add folds weight into the bin, inserting its window and cell in place
// when they are new, and reports whether the bin is new.
func (h *History) add(b Bin, weight float64) bool {
	k, ok := slices.BinarySearch(h.windows, b.Window)
	if !ok {
		h.windows = insert(h.windows, k, b.Window)
		h.off = insert(h.off, k, h.off[k]) // an empty window k
	}
	lo, hi := int(h.off[k]), int(h.off[k+1])
	j, ok := slices.BinarySearch(h.cells[lo:hi], b.Cell)
	j += lo
	if ok {
		h.counts[j] += weight
		return false
	}
	h.cells = insert(h.cells, j, b.Cell)
	h.counts = insert(h.counts, j, weight)
	for i := k + 1; i < len(h.off); i++ {
		h.off[i]++
	}
	return true
}

// insert is slices.Insert of one element, except that a full column grows
// by a quarter (plus one) where append would double it — as it does every
// slice under 256 elements. A streamed history gains a bin or two per
// flush, so doubling its exactly sized columns would leave most of each
// empty.
func insert[S ~[]E, E any](s S, i int, v E) S {
	if len(s) == cap(s) {
		s = append(make(S, 0, len(s)+len(s)/4+1), s...)
	}
	return slices.Insert(s, i, v)
}

// Windows returns the sorted leaf window indices with at least one record.
// The returned slice must not be modified.
func (h *History) Windows() []int64 { return h.windows }

// Version returns the history's mutation counter: 0 for a freshly built
// history, bumped by every Store.Add that touches the entity. The compiled
// scoring views (compiled.go) and the incremental LSH candidate index
// (internal/candidates) both key their stale-entity checks on it.
func (h *History) Version() uint64 { return h.version }

// WindowBins returns the cells (ascending) and record weights of the given
// leaf window as views into the history's columns, empty if the entity has
// no records there. The returned slices must not be modified and are
// invalidated by the next Store.Add to this entity.
func (h *History) WindowBins(window int64) ([]geo.CellID, []float64) {
	k, ok := slices.BinarySearch(h.windows, window)
	if !ok {
		return nil, nil
	}
	lo, hi := h.off[k], h.off[k+1]
	return h.cells[lo:hi:hi], h.counts[lo:hi:hi]
}

// NumBins returns |H_u|: the number of distinct time-location bins.
func (h *History) NumBins() int { return len(h.cells) }

// NumRecords returns the number of records aggregated into the history.
func (h *History) NumRecords() int { return h.numRecs }

// Bins calls fn for every time-location bin with its record weight, in
// column order (windows ascending, cells ascending).
func (h *History) Bins(fn func(Bin, float64)) {
	for k, win := range h.windows {
		for j := h.off[k]; j < h.off[k+1]; j++ {
			fn(Bin{Window: win, Cell: h.cells[j]}, h.counts[j])
		}
	}
}

// cellAt is one bin of a dominating-cell query range: its cell and its
// position in the history's columns.
type cellAt struct {
	cell geo.CellID
	at   int32
}

// domScratch pools the sort buffer of multi-window dominating-cell queries,
// so concurrent queries over shared histories allocate nothing once warm.
var domScratch = sync.Pool{New: func() any { return new([]cellAt) }}

// DominatingCell returns the cell with the highest record weight within
// the window range [start, end). Ties break toward the smaller cell id so
// signatures are deterministic. ok is false when the entity has no records
// in the range.
func (h *History) DominatingCell(start, end int64) (cell geo.CellID, ok bool) {
	if start >= end {
		return 0, false
	}
	lo, _ := slices.BinarySearch(h.windows, start)
	hi, _ := slices.BinarySearch(h.windows, end)
	return h.DominatingCellAt(lo, hi)
}

// DominatingCellAt is DominatingCell over window positions: the range is
// the leaves Windows()[lo:hi], 0 <= lo <= hi <= len(Windows()). Each
// cell's weights are summed in window order, a fixed order, so the result
// is a pure function of the history.
func (h *History) DominatingCellAt(lo, hi int) (cell geo.CellID, ok bool) {
	if lo >= hi {
		return 0, false
	}
	b0, b1 := h.off[lo], h.off[hi]
	bestN := -1.0
	// Cells are visited in ascending id order below, so keeping the first
	// strict maximum is the smaller-id tie-break.
	if hi-lo == 1 {
		for j := b0; j < b1; j++ {
			if h.counts[j] > bestN {
				cell, bestN = h.cells[j], h.counts[j]
			}
		}
		return cell, true
	}
	sp := domScratch.Get().(*[]cellAt)
	buf := (*sp)[:0]
	for j := b0; j < b1; j++ {
		buf = append(buf, cellAt{h.cells[j], j})
	}
	slices.SortFunc(buf, func(a, b cellAt) int {
		return cmp.Or(cmp.Compare(a.cell, b.cell), cmp.Compare(a.at, b.at))
	})
	for i := 0; i < len(buf); {
		c, n := buf[i].cell, 0.0
		for ; i < len(buf) && buf[i].cell == c; i++ {
			n += h.counts[buf[i].at]
		}
		if n > bestN {
			cell, bestN = c, n
		}
	}
	*sp = buf
	domScratch.Put(sp)
	return cell, true
}

// Store holds the mobility histories of one location dataset plus the
// dataset-level statistics used by the similarity score. Histories are
// addressed by the ordinals of the side's entity table (see Ordinals);
// the EntityID accessors resolve the id once and delegate.
//
// A store comes in two kinds. A scoring store (Build, BuildParallel,
// BuildGrouped) additionally maintains the bin→entity frequency index
// behind IDF and the compiled read path. A signature store
// (Store.SignatureStore) is the side's second store at the LSH spatial
// level: the candidate index reads only its columns and history versions,
// so it keeps neither, and IDF, Compile and CompiledViewAt panic on it.
type Store struct {
	Name      string
	Windowing model.Windowing
	Level     int

	// ords is the side's entity table. histories is indexed by its
	// ordinals; an entry is nil while only the side's other store has been
	// told about the entity. entities lists the ids with a history, sorted.
	ords      *Ordinals
	histories []*History
	entities  []model.EntityID

	// freq is the bin→entity frequency index; nil on a signature store.
	freq      *freqIndex
	avgBins   float64
	totalBins int
	minWindow int64
	maxWindow int64
	hasData   bool

	// epoch versions the dataset-level IDF inputs (entity count, bin
	// frequencies). Any change invalidates every compiled view,
	// because the IDF weights baked into them may have shifted; see
	// compiled.go.
	epoch uint64

	// addScratch is Add's reused bin-contribution buffer.
	addScratch []binWeight

	// Compiled read path: per-ordinal flat views plus the dense cell
	// interner shared by all of them (cells[i] is the cell with index i).
	// compMu lets concurrent scorers take the read path while lazy
	// recompiles serialize on the write side; it also guards Compile's
	// reused list of stale ordinals and the IDF table (see idfTableLocked).
	compMu    sync.RWMutex
	compiled  []*Compiled
	cellIndex map[geo.CellID]int32
	cells     []geo.CellGeom
	stale     []uint32
	idfs      []float64
	idfsN     int
}

// Build constructs the histories of every entity of the dataset at the
// given spatial level, under the given shared windowing.
func Build(d *model.Dataset, w model.Windowing, spatialLevel int) *Store {
	return BuildParallel(d, w, spatialLevel, 1)
}

// BuildParallel is Build with the per-entity history construction fanned
// out over the given number of workers. The dataset-level statistics are
// folded in serially, in sorted-entity order, so the store is identical
// for every worker count.
func BuildParallel(d *model.Dataset, w model.Windowing, spatialLevel, workers int) *Store {
	g := d.GroupByEntity(-1)
	return BuildGrouped(&g, w, spatialLevel, workers)
}

// BuildGrouped is BuildParallel over records already grouped by entity.
// It starts the side's entity table: ordinal k is g.Entities[k].
func BuildGrouped(g *model.Grouped, w model.Windowing, spatialLevel, workers int) *Store {
	return build(g, newOrdinals(len(g.Entities)), w, spatialLevel, workers, true)
}

// SignatureStore builds the side's signature store at another spatial
// level from the grouped records s itself was built from. It shares s's
// entity table and windowing and holds columns and versions only.
func (s *Store) SignatureStore(g *model.Grouped, spatialLevel, workers int) *Store {
	return build(g, s.ords, s.Windowing, spatialLevel, workers, false)
}

func build(g *model.Grouped, ords *Ordinals, w model.Windowing, spatialLevel, workers int, scoring bool) *Store {
	s := &Store{
		Name:      g.Name,
		Windowing: w,
		Level:     spatialLevel,
		ords:      ords,
		histories: make([]*History, len(g.Entities)),
		entities:  slices.Clone(g.Entities),
	}
	for k, e := range g.Entities {
		if ord := ords.intern(e); int(ord) != k {
			panic("history: grouped entities do not line up with the side's ordinals")
		}
	}
	par.Chunks(workers, len(s.histories), func(_, lo, hi int) {
		var scratch []binWeight // one per worker, reused across its histories
		for k := lo; k < hi; k++ {
			s.histories[k], scratch = newHistory(g.Entities[k], g.Of(k), w, spatialLevel, scratch)
		}
	})
	for _, h := range s.histories {
		s.totalBins += h.NumBins()
		s.noteWindows(h.windows[0], h.windows[len(h.windows)-1])
	}
	if scoring {
		s.freq = newFreqIndex(s.histories, s.totalBins)
		s.cellIndex = make(map[geo.CellID]int32)
	}
	if len(s.entities) > 0 {
		s.avgBins = float64(s.totalBins) / float64(len(s.entities))
	}
	return s
}

// noteWindows widens the store's window range to include [lo, hi].
func (s *Store) noteWindows(lo, hi int64) {
	if !s.hasData {
		s.minWindow, s.maxWindow, s.hasData = lo, hi, true
		return
	}
	s.minWindow = min(s.minWindow, lo)
	s.maxWindow = max(s.maxWindow, hi)
}

// mustScore panics on a signature store: a zero IDF weight or an empty
// compiled view there would be a silently wrong score, not a missing one.
func (s *Store) mustScore(op string) {
	if s.freq == nil {
		panic("history: " + op + " on a signature store (columns and versions only)")
	}
}

// NumEntities returns the number of entities with a history.
func (s *Store) NumEntities() int { return len(s.entities) }

// Entities returns the sorted entity ids. The slice must not be modified.
func (s *Store) Entities() []model.EntityID { return s.entities }

// Ordinals returns the side's entity table.
func (s *Store) Ordinals() *Ordinals { return s.ords }

// HistoryAt returns the history of the entity with the given ordinal, or
// nil if the store holds none.
func (s *Store) HistoryAt(ord uint32) *History {
	if int(ord) >= len(s.histories) {
		return nil
	}
	return s.histories[ord]
}

// History returns the history of the given entity, or nil.
func (s *Store) History(e model.EntityID) *History {
	ord, ok := s.ords.Lookup(e)
	if !ok {
		return nil
	}
	return s.HistoryAt(ord)
}

// AvgBins returns the average number of time-location bins per history.
func (s *Store) AvgBins() float64 { return s.avgBins }

// WindowRange returns the inclusive [min, max] leaf window indices across
// all histories; ok is false for an empty store.
func (s *Store) WindowRange() (minWin, maxWin int64, ok bool) {
	if len(s.entities) == 0 {
		return 0, 0, false
	}
	return s.minWindow, s.maxWindow, true
}

// Epoch returns the store's IDF-input version: it moves whenever a
// dataset-level score input changes — a new entity (|U| and the average
// history size shift) or a new time-location bin (bin→entity frequencies
// and the average history size shift). While the epoch stands still, the
// score of any pair of unchanged histories is unchanged too: weight-only
// adds touch exactly the histories they land in. The compiled scoring
// views (compiled.go) and the root package's incremental edge store both
// key their invalidation on this counter.
func (s *Store) Epoch() uint64 { return s.epoch }

// IDF returns the inverse-document-frequency weight of a time-location bin
// (Eq. 3): log(|U| / |{u : bin ∈ H_u}|). Bins absent from the dataset get
// the maximum weight log(|U|), consistent with the limit of Eq. 3.
func (s *Store) IDF(b Bin) float64 {
	s.mustScore("IDF")
	n := len(s.entities)
	if n == 0 {
		return 0
	}
	fw, _ := s.freq.window(0, b.Window)
	return idf(n, fw.count(b.Cell))
}

// idf is Eq. 3 for a bin that df of n entities hold; a bin no entity
// holds weighs like one a single entity does.
func idf(n int, df int32) float64 {
	return math.Log(float64(n) / float64(max(df, 1)))
}

// NormFactorAt returns the BM25-style length normalization L(u) of Eq. 2
// for parameter b in [0, 1]; 1 for an ordinal without a history.
func (s *Store) NormFactorAt(ord uint32, b float64) float64 {
	h := s.HistoryAt(ord)
	if h == nil || s.avgBins == 0 {
		return 1
	}
	return (1 - b) + b*float64(h.NumBins())/s.avgBins
}

// NormFactor is NormFactorAt by entity id; 1 for an unknown entity.
func (s *Store) NormFactor(e model.EntityID, b float64) float64 {
	ord, ok := s.ords.Lookup(e)
	if !ok {
		return 1
	}
	return s.NormFactorAt(ord, b)
}
