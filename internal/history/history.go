// Package history implements SLIM's mobility-history representation
// (Sec. 2.3): per entity, the ordered set of time-location bins — fixed-width
// time windows holding spatial grid-cell ids with record weights — laid out
// as flat sorted columns. The dominating-grid-cell queries that drive the
// LSH signatures (Sec. 4) run on a signature store, whose windows are the
// signature's query windows, so each is a scan of one window's contiguous
// bins; the paper's Fig. 1 segment tree is deliberately not materialized
// (DESIGN.md §5).
//
// A Store holds the histories of one location dataset together with the
// dataset-level statistics the similarity score needs: the entity count
// and the average history size behind the BM25-style length normalization
// (Eq. 2). The document frequency behind the IDF component (Eq. 3) — how
// many entities hold a bin — is no separate structure: the bin columns
// already say it, and a scoring store counts it when it compiles.
//
// A store is columns, not objects: one column family, one entry per bin
// — the bin's window, its cell and its record weight — holds every
// history back to back, sorted by (window, cell) within each, and an
// entity is a 12 B segment record locating its range, indexed by ordinal.
// A bin names its window by a 4-byte dense index into the store's window
// table, interned when the first bin in the window is created, so the
// bins of one window are one run of the columns; outside this package,
// the walks over a history's windows and over a pair's common windows
// (EachWindow, CommonWindows) are all that reads that layout. A History is a
// small value of subslices of the columns, made on request. A scoring
// store names a bin's cell by its dense index into the store's cell
// table, interned the same way, and adds one compiled column, the bin's
// document frequency (compiled.go): the compiled scoring view of an
// entity is four subslices of one store plus its window, cell and IDF
// tables, and no per-entity object exists anywhere. Document frequencies
// are dataset-level, so the column is counted for the whole store at once,
// in one pass over the column family, and the store keeps one stamp of the
// epoch it was compiled at; a view fetch reads it with one atomic load and
// takes no lock. A signature store's cells are nearly all distinct, so it
// keeps the cell ids themselves and no cell table.
//
// Entities are numbered. Each linkage side has one append-only entity
// table (Ordinals: EntityID ↔ uint32), shared by the side's scoring store
// and its signature store; the segment table is indexed by its ordinals,
// and the *At accessors take one. That is what lets every pair-scale
// structure downstream — the candidate index, the scorer's hot entry
// point, the edge store — refer to an entity in four bytes and never hash
// its id; the EntityID accessors here resolve an id once and delegate
// (DESIGN.md §5.7).
package history

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"unsafe"

	"slim/internal/geo"
	"slim/internal/model"
	"slim/internal/par"
)

// Bin is a time-location bin: one leaf entry of a mobility history.
type Bin struct {
	Window int64
	Cell   geo.CellID
}

// History is the mobility history of a single entity: a view of its
// store's columns, sorted by (window, cell). Bin j is in window
// windows[win[j]] (see windowCol) and its cell is ids[j] on a signature
// store and table[cells[j]].ID on a scoring store (see cellAt). A History
// is valid until the next Store.Add to its store, which may move or shift
// the columns it views: fetch it per use. The zero History holds no bins;
// it is what the accessors return for an entity the store holds no
// history for.
type History struct {
	Entity model.EntityID

	windowCol
	ids    []geo.CellID
	cells  []int32
	table  []geo.CellGeom
	counts []float64
}

// windowCol names the window of every bin of a history or view: bin j is
// in window windows[win[j]], win[j] being the bin's index into its store's
// window table. The bins ascend by (window, cell), so the bins of one
// window are one run of equal indices.
type windowCol struct {
	win     []int32
	windows []int64
}

// runEnd returns the end of the run of equal window indices starting at
// position lo of a window column.
func runEnd(win []int32, lo int) int {
	hi := lo + 1
	for hi < len(win) && win[hi] == win[lo] {
		hi++
	}
	return hi
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

// foldBins appends the distinct bins of one entity's records to dst,
// sorted by (window, cell), each with its record weights summed. The
// contributions are collected in scratch, which is returned (possibly
// grown) for the caller's next entity, and sorted stably, so the weights of
// one bin are summed in record order — the order Store.Add sums them in.
func foldBins(dst, scratch []binWeight, recs []model.Record, w model.Windowing, level int) (folded, grown []binWeight) {
	bws := scratch[:0]
	for _, r := range recs {
		bws = appendBinWeights(bws, r, w.Window(r.Unix), level)
	}
	slices.SortStableFunc(bws, func(a, b binWeight) int {
		return cmp.Or(cmp.Compare(a.Window, b.Window), cmp.Compare(a.Cell, b.Cell))
	})
	for i, b := range bws {
		if i > 0 && b.Bin == bws[i-1].Bin {
			dst[len(dst)-1].weight += b.weight
			continue
		}
		dst = append(dst, b)
	}
	return dst, bws
}

// EachWindow calls fn for every window of the history, ascending, with
// the range [lo, hi) of its bins, the positions DominatingCell takes. On a
// signature store a window is a signature row, so this is the walk over a
// history's rows.
func (h *History) EachWindow(fn func(window int64, lo, hi int)) {
	for lo := 0; lo < len(h.win); {
		hi := runEnd(h.win, lo)
		fn(h.windows[h.win[lo]], lo, hi)
		lo = hi
	}
}

// cellAt returns the cell of the history's bin j, resolving a scoring
// store's dense index through the store's cell table.
func (h *History) cellAt(j int) geo.CellID {
	if h.table != nil {
		return h.table[h.cells[j]].ID
	}
	return h.ids[j]
}

// WindowBins returns the cells (ascending) and record weights of the given
// leaf window, empty if the entity has no records there. The weights are
// a view into the store's columns and the cells too on a signature store;
// a scoring store's are resolved into a new slice. Views must not be
// modified and are invalidated by the next Store.Add.
func (h *History) WindowBins(window int64) ([]geo.CellID, []float64) {
	lo := sort.Search(len(h.win), func(j int) bool { return h.windows[h.win[j]] >= window })
	if lo == len(h.win) || h.windows[h.win[lo]] != window {
		return nil, nil
	}
	hi := runEnd(h.win, lo)
	if h.table == nil {
		return h.ids[lo:hi:hi], h.counts[lo:hi:hi]
	}
	cells := make([]geo.CellID, 0, hi-lo)
	for j := lo; j < hi; j++ {
		cells = append(cells, h.cellAt(j))
	}
	return cells, h.counts[lo:hi:hi]
}

// NumBins returns |H_u|: the number of distinct time-location bins.
func (h *History) NumBins() int { return len(h.counts) }

// Bins calls fn for every time-location bin with its record weight, in
// column order (windows ascending, cells ascending).
func (h *History) Bins(fn func(Bin, float64)) {
	for j, w := range h.win {
		fn(Bin{Window: h.windows[w], Cell: h.cellAt(j)}, h.counts[j])
	}
}

// DominatingCell returns the cell with the highest record weight among
// the bins [lo, hi) of one window, as EachWindow gives them. Ties break
// toward the smaller cell id so signatures are deterministic. On a
// signature store a window is a signature row, so this is the row's
// dominating cell (Sec. 4).
func (h *History) DominatingCell(lo, hi int) geo.CellID {
	var cell geo.CellID
	bestN := -1.0
	// Cells ascend within a window, so keeping the first strict maximum is
	// the smaller-id tie-break.
	for j := lo; j < hi; j++ {
		if h.counts[j] > bestN {
			cell, bestN = h.cellAt(j), h.counts[j]
		}
	}
	return cell
}

// segment locates one entity's history in its store's columns: the bin
// range [bin, bin+binRoom) of the column family holds its nBin bins, and
// the rest of the range is room to grow in place. An ordinal the store
// holds no history for has nBin == 0. Positions are int32: a store holds
// fewer than 2³¹ bins.
type segment struct {
	bin, nBin, binRoom int32
}

// Store holds the mobility histories of one location dataset plus the
// dataset-level statistics used by the similarity score. Histories are
// addressed by the ordinals of the side's entity table (see Ordinals);
// the EntityID accessors resolve the id once and delegate.
//
// A store comes in two kinds, told apart by the cell table. A scoring
// store (Build, BuildGrouped) interns its cells into one and has the
// compiled read path, which counts every bin's document frequency behind
// the IDF weights (Eq. 3). A signature store (Store.SignatureStore) is the
// side's second store, at the LSH spatial level and windowing: the
// candidate index reads only its columns, so it keeps neither, and Compile
// and CompiledViewAt panic on it.
type Store struct {
	Name      string
	Windowing model.Windowing
	Level     int

	// ords is the side's entity table; segs is indexed by its ordinals and
	// may be shorter while only the side's other store has been told about
	// an entity. nEntities counts the ordinals with a history here.
	ords      *Ordinals
	segs      []segment
	nEntities int

	// The column family, one entry per bin (see segment); how a growing
	// segment moves is in incremental.go. win is the bin's index into the
	// window table. A bin's cell is in one of two columns, by store kind,
	// and the other is nil: a signature store keeps the cell id (ids), a
	// scoring store its dense index into the cell table (cells). df is a
	// scoring store's compiled column (compiled.go), nil until its first
	// compile.
	win    []int32
	ids    []geo.CellID
	cells  []int32
	counts []float64
	df     []int32

	// The window table: windows[i] is the leaf window (on a signature
	// store, the signature row) with dense index i, and windowIndex
	// inverts it. A window is interned when the first bin in it is
	// created, so the table is append-only, holds each distinct window the
	// store has seen once however far apart they lie, and an index stays
	// valid for the store's life.
	windowIndex map[int64]int32
	windows     []int64

	// A scoring store's cell table: geoms[i] is the id, centre and
	// circumradius of the cell with dense index i, and cellIndex inverts
	// it. A cell is interned when the first bin in it is created, so the
	// table is append-only and an index stays valid for the store's life.
	cellIndex map[geo.CellID]int32
	geoms     []geo.CellGeom

	avgBins   float64
	totalBins int

	// epoch versions the dataset-level IDF inputs (entity count, bin set).
	// Any change stales the whole df column, because any document
	// frequency in it may have shifted; see compiled.go.
	epoch uint64

	// addScratch is Add's reused bin-contribution buffer.
	addScratch []binWeight

	// Compiled read path (compiled.go). compiled is one past the epoch the
	// df column and the IDF table idfs were last compiled at (0: never),
	// read by every view fetch; compMu serializes the compiles that write
	// them. winEnd, byWin and tally are the df count's scratch (see
	// countDF), kept so that a compile after an epoch move alone allocates
	// nothing.
	compiled atomic.Uint64
	compMu   sync.Mutex
	idfs     []float64
	winEnd   []int32
	byWin    []int32
	tally    []int32
}

// Build constructs the histories of every entity of the dataset at the
// given spatial level, under the given shared windowing.
func Build(d *model.Dataset, w model.Windowing, spatialLevel int) *Store {
	g := d.GroupByEntity(-1)
	return BuildGrouped(&g, w, spatialLevel, 1)
}

// BuildGrouped is Build over records already grouped by entity, with the
// per-entity history construction fanned out over the given number of
// workers. The dataset-level statistics are folded in serially, in
// sorted-entity order, so the store is identical for every worker count.
// It starts the side's entity table: ordinal k is g.Entities[k].
func BuildGrouped(g *model.Grouped, w model.Windowing, spatialLevel, workers int) *Store {
	return build(g, newOrdinals(len(g.Entities)), w, spatialLevel, workers, true)
}

// SignatureStore builds the side's signature store, at another windowing
// and spatial level, from the grouped records s itself was built from. It
// shares s's entity table and holds columns only.
func (s *Store) SignatureStore(g *model.Grouped, w model.Windowing, spatialLevel, workers int) *Store {
	return build(g, s.ords, w, spatialLevel, workers, false)
}

// build lays every entity out back to back, in ordinal order, in columns
// it allocates once, so it allocates a fixed number of columns, not a set
// per entity. A first pass bounds each entity's bins from its records
// alone — a point record opens at most one bin, a region record one per
// covering cell — and a second, fanned out over the workers like the
// first, folds each entity's bins into its bounded range, numbering their
// windows (and a scoring store's cells) in the order its worker meets
// them. A serial slide then interns each worker's numbers into the
// store's tables, in worker order (see firstSight), and closes the gaps
// the folding left, in place. Points rarely fold (SM: 365,445 bins of
// 365,738 records); where they do, so much that the columns' spare
// capacity passes what a rewrite leaves (see spareDiv), the columns are
// cloned to size.
func build(g *model.Grouped, ords *Ordinals, w model.Windowing, spatialLevel, workers int, scoring bool) *Store {
	s := &Store{
		Name:        g.Name,
		Windowing:   w,
		Level:       spatialLevel,
		ords:        ords,
		segs:        make([]segment, len(g.Entities)),
		nEntities:   len(g.Entities),
		windowIndex: make(map[int64]int32),
	}
	for k, e := range g.Entities {
		if ord := ords.intern(e); int(ord) != k {
			panic("history: grouped entities do not line up with the side's ordinals")
		}
	}
	par.Chunks(workers, len(s.segs), func(_, lo, hi int) {
		for k := lo; k < hi; k++ {
			sg := &s.segs[k]
			for _, r := range g.Of(k) {
				if r.RadiusKm <= 0 {
					sg.binRoom++
				} else {
					sg.binRoom += int32(len(geo.CoverCapCells(r.LatLng, r.RadiusKm, spatialLevel)))
				}
			}
		}
	})
	var nBin int32
	for k := range s.segs {
		s.segs[k].bin = nBin
		nBin += s.segs[k].binRoom
	}
	s.win, s.counts = make([]int32, nBin), make([]float64, nBin)
	if scoring {
		s.cellIndex, s.cells = make(map[geo.CellID]int32), make([]int32, nBin)
	} else {
		s.ids = make([]geo.CellID, nBin)
	}
	type chunk struct {
		lo, hi  int
		windows firstSight[int64]
		cells   firstSight[geo.CellID]
	}
	chunks := make([]chunk, max(1, workers))
	par.Chunks(workers, len(s.segs), func(c, lo, hi int) {
		ch := &chunks[c]
		ch.lo, ch.hi = lo, hi
		var bins, scratch []binWeight
		for k := lo; k < hi; k++ {
			bins, scratch = foldBins(bins[:0], scratch, g.Of(k), w, spatialLevel)
			sg := &s.segs[k]
			sg.nBin = int32(len(bins))
			var win int32
			for j, b := range bins {
				if j == 0 || b.Window != bins[j-1].Window {
					win = ch.windows.id(b.Window)
				}
				at := sg.bin + int32(j)
				s.win[at], s.counts[at] = win, b.weight
				if scoring {
					s.cells[at] = ch.cells.id(b.Cell)
				} else {
					s.ids[at] = b.Cell
				}
			}
		}
	})
	nBin = 0
	for c := range chunks {
		ch := &chunks[c]
		wins, cells := ch.windows.merge(s.internWindow), ch.cells.merge(s.intern)
		for k := ch.lo; k < ch.hi; k++ {
			sg := &s.segs[k]
			from, to := sg.bin, sg.bin+sg.nBin
			for j := from; j < to; j++ {
				s.win[j] = wins[s.win[j]]
			}
			copy(s.win[nBin:], s.win[from:to])
			copy(s.counts[nBin:], s.counts[from:to])
			if scoring {
				for j := from; j < to; j++ {
					s.cells[j] = cells[s.cells[j]]
				}
				copy(s.cells[nBin:], s.cells[from:to])
			} else {
				copy(s.ids[nBin:], s.ids[from:to])
			}
			sg.bin, sg.binRoom = nBin, sg.nBin
			nBin += sg.nBin
		}
	}
	s.win, s.counts = clipSpare(s.win[:nBin]), clipSpare(s.counts[:nBin])
	s.totalBins = int(nBin)
	if scoring {
		s.cells = clipSpare(s.cells[:nBin])
	} else {
		s.ids = clipSpare(s.ids[:nBin])
	}
	if s.nEntities > 0 {
		s.avgBins = float64(s.totalBins) / float64(s.nEntities)
	}
	return s
}

// firstSight numbers the distinct keys one build worker meets, in the
// order it meets them. A worker folds a contiguous run of ordinals, so
// merging the workers' tables in worker order (merge) assigns the store's
// indices in exactly the order one serial pass over the columns would:
// the indices are the same for every worker count.
type firstSight[K comparable] struct {
	index map[K]int32
	keys  []K
}

// id returns the key's number, giving it the next one on first sight.
func (t *firstSight[K]) id(k K) int32 {
	if t.index == nil {
		t.index = make(map[K]int32)
	}
	i, ok := t.index[k]
	if !ok {
		i = int32(len(t.keys))
		t.index[k] = i
		t.keys = append(t.keys, k)
	}
	return i
}

// merge interns the worker's keys into a store table, in the order the
// worker met them, and returns the store index of each of its numbers.
func (t *firstSight[K]) merge(intern func(K) int32) []int32 {
	out := make([]int32, len(t.keys))
	for i, k := range t.keys {
		out[i] = intern(k)
	}
	return out
}

// internWindow returns the dense index of a window, appending it to the
// window table on first sight.
func (s *Store) internWindow(w int64) int32 {
	i, ok := s.windowIndex[w]
	if !ok {
		i = int32(len(s.windows))
		s.windowIndex[w] = i
		s.windows = append(s.windows, w)
	}
	return i
}

// intern returns the dense index of a scoring store's cell, appending the
// cell and its geometry to the table on first sight.
func (s *Store) intern(id geo.CellID) int32 {
	i, ok := s.cellIndex[id]
	if !ok {
		i = int32(len(s.geoms))
		s.cellIndex[id] = i
		s.geoms = append(s.geoms, geo.GeomOf(id))
	}
	return i
}

// clipSpare returns col, or a copy of exactly its length if its spare
// capacity exceeds what a column-family rewrite leaves (see spareDiv). The
// columns of a family share one capacity, so the copy is not an append,
// which would round it up by element size.
func clipSpare[E any](col []E) []E {
	if cap(col)-len(col) <= len(col)/spareDiv {
		return col
	}
	out := make([]E, len(col))
	copy(out, col)
	return out
}

// scoring reports whether the store is a scoring store: whether it keeps
// a cell table.
func (s *Store) scoring() bool { return s.cellIndex != nil }

// mustScore panics on a signature store: a zero IDF weight or an empty
// compiled view there would be a silently wrong score, not a missing one.
func (s *Store) mustScore(op string) {
	if !s.scoring() {
		panic("history: " + op + " on a signature store (columns only)")
	}
}

// NumEntities returns the number of entities with a history.
func (s *Store) NumEntities() int { return s.nEntities }

// Entities returns the ids of the entities with a history, sorted, in a
// new slice.
func (s *Store) Entities() []model.EntityID {
	ids := make([]model.EntityID, 0, s.nEntities)
	for ord := range s.segs {
		if s.segs[ord].nBin > 0 {
			ids = append(ids, s.ords.ID(uint32(ord)))
		}
	}
	slices.Sort(ids)
	return ids
}

// Ordinals returns the side's entity table.
func (s *Store) Ordinals() *Ordinals { return s.ords }

// segAt returns the segment of an ordinal, or nil if the store holds no
// history for it.
func (s *Store) segAt(ord uint32) *segment {
	if int(ord) >= len(s.segs) || s.segs[ord].nBin == 0 {
		return nil
	}
	return &s.segs[ord]
}

// HistoryAt returns the history of the entity with the given ordinal, or
// the zero History if the store holds none.
func (s *Store) HistoryAt(ord uint32) History {
	sg := s.segAt(ord)
	if sg == nil {
		return History{}
	}
	b, nb := sg.bin, sg.nBin
	return History{
		Entity:    s.ords.ID(ord),
		windowCol: windowCol{win: s.win[b : b+nb : b+nb], windows: s.windows},
		ids:       binRange(s.ids, b, nb),
		cells:     binRange(s.cells, b, nb),
		table:     s.geoms,
		counts:    s.counts[b : b+nb : b+nb],
	}
}

// binRange returns the n elements of a column from position b on,
// or nil for a column the store does not keep.
func binRange[E any](col []E, b, n int32) []E {
	if col == nil {
		return nil
	}
	return col[b : b+n : b+n]
}

// History returns the history of the given entity, or the zero History.
func (s *Store) History(e model.EntityID) History {
	ord, ok := s.ords.Lookup(e)
	if !ok {
		return History{}
	}
	return s.HistoryAt(ord)
}

// Epoch returns the store's IDF-input version: it moves whenever a
// dataset-level score input changes — a new entity (|U| and the average
// history size shift) or a new time-location bin (document frequencies
// and the average history size shift). While the epoch stands still, the
// score of any pair of unchanged histories is unchanged too: weight-only
// adds touch exactly the histories they land in. The compiled scoring
// columns (compiled.go) and the root package's incremental edge store both
// key their invalidation on this counter.
func (s *Store) Epoch() uint64 { return s.epoch }

// idf is Eq. 3 for a bin that df of n entities hold; a bin no entity
// holds weighs like one a single entity does.
func idf(n int, df int32) float64 {
	return math.Log(float64(n) / float64(max(df, 1)))
}

// ResidentBytes sums the capacities of what the store retains: the bin
// column family (the df column included), the segment table, the window
// and cell tables, the IDF table and the scratch of Add and of the df
// count. The side's entity table, which its two stores share, reports its
// own (Ordinals.ResidentBytes); the id strings both list are the records'.
func (s *Store) ResidentBytes() int64 {
	return int64(4*cap(s.win) + 8*cap(s.ids) + 4*cap(s.cells) + 8*cap(s.counts) + 4*cap(s.df) +
		int(unsafe.Sizeof(segment{}))*cap(s.segs) +
		8*cap(s.windows) + int(mapBytes(s.windowIndex)) +
		int(unsafe.Sizeof(geo.CellGeom{}))*cap(s.geoms) + int(mapBytes(s.cellIndex)) +
		int(unsafe.Sizeof(binWeight{}))*cap(s.addScratch) + 8*cap(s.idfs) +
		4*(cap(s.winEnd)+cap(s.byWin)+cap(s.tally)))
}

// NormFactorAt returns the BM25-style length normalization L(u) of Eq. 2
// for parameter b in [0, 1]; 1 for an ordinal without a history.
func (s *Store) NormFactorAt(ord uint32, b float64) float64 {
	sg := s.segAt(ord)
	if sg == nil || s.avgBins == 0 {
		return 1
	}
	return (1 - b) + b*float64(sg.nBin)/s.avgBins
}
