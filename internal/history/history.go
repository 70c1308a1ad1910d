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
// dataset-level statistics the similarity score needs: the bin→entity
// frequency index behind the IDF component (Eq. 3) — itself sorted columns,
// one pair per window (freq.go) — and the average history size behind the
// BM25-style length normalization (Eq. 2).
//
// A store is columns, not objects. Its per-window columns (window index,
// bin offset) and per-bin columns (cell, record weight) hold every history
// back to back; an entity is a fixed-size segment record locating its
// ranges in them, indexed by ordinal. A History is a small value of
// subslices of those columns, made on request. A scoring store names a
// bin's cell by its dense index into the store's cell table, interned when
// the bin is created, and adds one compiled per-bin column, the bin's
// document frequency (compiled.go): the compiled scoring view of an entity
// is five subslices of one store plus its cell and IDF tables, and no
// per-entity object exists anywhere. A signature store's cells are nearly
// all distinct, so it keeps the cell ids themselves.
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
	"sync"
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
// store's columns, sorted by (window, cell). Window k = windows[k] owns the
// bins [off[k], off[k+1]) of the per-bin columns, cells ascending; len(off)
// is len(windows)+1. A bin's cell is ids[j] on a signature store and
// table[cells[j]].ID on a scoring store (see cellAt). A History is valid
// until the next Store.Add to its store, which may move or shift the
// columns it views: fetch it per use. The zero History holds no bins; it
// is what the accessors return for an entity the store holds no history
// for.
type History struct {
	Entity model.EntityID

	windows []int64
	off     []int32
	ids     []geo.CellID
	cells   []int32
	table   []geo.CellGeom
	counts  []float64
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

// Windows returns the sorted leaf window indices with at least one record.
// The returned slice must not be modified.
func (h *History) Windows() []int64 { return h.windows }

// cellAt returns the cell of the history's bin j, resolving a scoring
// store's dense index through the store's cell table.
func (h *History) cellAt(j int32) geo.CellID {
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
	k, ok := slices.BinarySearch(h.windows, window)
	if !ok {
		return nil, nil
	}
	lo, hi := h.off[k], h.off[k+1]
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
	for k, win := range h.windows {
		for j := h.off[k]; j < h.off[k+1]; j++ {
			fn(Bin{Window: win, Cell: h.cellAt(j)}, h.counts[j])
		}
	}
}

// DominatingCellAt returns the cell with the highest record weight in the
// window at position k of Windows(), 0 <= k < len(Windows()). Ties break
// toward the smaller cell id so signatures are deterministic. On a
// signature store a window is a signature row, so this is the row's
// dominating cell (Sec. 4).
func (h *History) DominatingCellAt(k int) geo.CellID {
	var cell geo.CellID
	bestN := -1.0
	// Cells ascend within a window, so keeping the first strict maximum is
	// the smaller-id tie-break.
	for j := h.off[k]; j < h.off[k+1]; j++ {
		if h.counts[j] > bestN {
			cell, bestN = h.cellAt(j), h.counts[j]
		}
	}
	return cell
}

// segment locates one entity's history in its store's columns. The
// window range [win, win+winRoom) of the per-window columns holds the
// nWin windows and the nWin+1 bin offsets, relative to the bin range; the
// bin range [bin, bin+binRoom) of the per-bin columns holds the nBin bins.
// The rest of each range is room to grow in place. An ordinal the store
// holds no history for has nWin == 0. Positions are int32: a store holds
// fewer than 2³¹ windows and bins.
type segment struct {
	win, nWin, winRoom int32
	bin, nBin, binRoom int32
	// filled stamps the df column of the bin range (compiled.go): one past
	// the store epoch it was written at, so a segment never filled (0)
	// never reads as current.
	filled uint64
}

// Store holds the mobility histories of one location dataset plus the
// dataset-level statistics used by the similarity score. Histories are
// addressed by the ordinals of the side's entity table (see Ordinals);
// the EntityID accessors resolve the id once and delegate.
//
// A store comes in two kinds. A scoring store (Build, BuildGrouped)
// additionally maintains the bin→entity frequency index behind the IDF
// weights (Eq. 3) and the compiled read path. A signature store
// (Store.SignatureStore) is the side's second store, at the LSH spatial
// level and windowing: the candidate index reads only its columns, so it
// keeps neither, and Compile and CompiledViewAt panic on it.
type Store struct {
	Name      string
	Windowing model.Windowing
	Level     int

	// ords is the side's entity table; segs is indexed by its ordinals and
	// may be shorter while only the side's other store has been told about
	// an entity. entities lists the ids with a history, sorted.
	ords     *Ordinals
	segs     []segment
	entities []model.EntityID

	// The per-window and the per-bin column families (see segment); how a
	// growing segment moves is in incremental.go. A bin's cell is in one
	// of two columns, by store kind, and the other is nil: a signature
	// store keeps the cell id (ids), a scoring store its dense index into
	// the cell table (cells). df is a scoring store's compiled column
	// (compiled.go), nil until its first compile.
	windows []int64
	off     []int32
	ids     []geo.CellID
	cells   []int32
	counts  []float64
	df      []int32

	// A scoring store's cell table: geoms[i] is the id, centre and
	// circumradius of the cell with dense index i, and cellIndex inverts
	// it. A cell is interned when the first bin in it is created, so the
	// table is append-only and an index stays valid for the store's life.
	cellIndex map[geo.CellID]int32
	geoms     []geo.CellGeom

	// freq is the bin→entity frequency index; nil on a signature store.
	freq      *freqIndex
	avgBins   float64
	totalBins int

	// epoch versions the dataset-level IDF inputs (entity count, bin
	// frequencies). Any change invalidates every compiled segment, because
	// the document frequencies in them may have shifted; see compiled.go.
	epoch uint64

	// addScratch is Add's reused bin-contribution buffer.
	addScratch []binWeight

	// Compiled read path (compiled.go). compMu lets concurrent scorers
	// take the read path while lazy refills serialize on the write side;
	// it also guards Compile's reused list of stale ordinals and the IDF
	// table (see idfTableLocked).
	compMu sync.RWMutex
	stale  []uint32
	idfs   []float64
	idfsN  int
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
// per entity. A first pass bounds each entity's windows and bins from its
// records alone — a record opens at most one window, a point record at most
// one bin, a region record one per covering cell — and a second, fanned out
// over the workers like the first, folds each entity's bins into its
// bounded ranges. A serial slide then closes the gaps the folding left, in
// place. Points rarely fold (SM: 365,445 bins of 365,738 records); where
// they do, so much that the columns' spare capacity passes what a rewrite
// leaves (see spareDiv), the columns are cloned to size.
func build(g *model.Grouped, ords *Ordinals, w model.Windowing, spatialLevel, workers int, scoring bool) *Store {
	s := &Store{
		Name:      g.Name,
		Windowing: w,
		Level:     spatialLevel,
		ords:      ords,
		segs:      make([]segment, len(g.Entities)),
		entities:  slices.Clone(g.Entities),
	}
	for k, e := range g.Entities {
		if ord := ords.intern(e); int(ord) != k {
			panic("history: grouped entities do not line up with the side's ordinals")
		}
	}
	par.Chunks(workers, len(s.segs), func(_, lo, hi int) {
		for k := lo; k < hi; k++ {
			sg := &s.segs[k]
			var last int64
			for i, r := range g.Of(k) {
				if win := w.Window(r.Unix); i == 0 || win != last {
					sg.winRoom++ // exact: an entity's records are in time order
					last = win
				}
				if r.RadiusKm <= 0 {
					sg.binRoom++
				} else {
					sg.binRoom += int32(len(geo.CoverCapCells(r.LatLng, r.RadiusKm, spatialLevel)))
				}
			}
			sg.winRoom++ // the offset slot past the last window
		}
	})
	var nWin, nBin int32
	for k := range s.segs {
		sg := &s.segs[k]
		sg.win, sg.bin = nWin, nBin
		nWin, nBin = nWin+sg.winRoom, nBin+sg.binRoom
	}
	// The folded cells are staged as ids; a scoring store interns them
	// into its own column below and drops the staging one.
	s.windows, s.off = make([]int64, nWin), make([]int32, nWin)
	ids := make([]geo.CellID, nBin)
	s.counts = make([]float64, nBin)
	par.Chunks(workers, len(s.segs), func(_, lo, hi int) {
		var bins, scratch []binWeight
		for k := lo; k < hi; k++ {
			bins, scratch = foldBins(bins[:0], scratch, g.Of(k), w, spatialLevel)
			sg := &s.segs[k]
			sg.nBin = int32(len(bins))
			for j, b := range bins {
				if j == 0 || b.Window != bins[j-1].Window {
					s.windows[sg.win+sg.nWin], s.off[sg.win+sg.nWin] = b.Window, int32(j)
					sg.nWin++
				}
				ids[sg.bin+int32(j)], s.counts[sg.bin+int32(j)] = b.Cell, b.weight
			}
			s.off[sg.win+sg.nWin] = sg.nBin
		}
	})
	nWin, nBin = 0, 0
	for k := range s.segs {
		sg := &s.segs[k]
		copy(s.windows[nWin:], s.windows[sg.win:sg.win+sg.nWin])
		copy(s.off[nWin:], s.off[sg.win:sg.win+sg.nWin+1])
		copy(ids[nBin:], ids[sg.bin:sg.bin+sg.nBin])
		copy(s.counts[nBin:], s.counts[sg.bin:sg.bin+sg.nBin])
		sg.win, sg.winRoom, sg.bin, sg.binRoom = nWin, sg.nWin+1, nBin, sg.nBin
		nWin, nBin = nWin+sg.winRoom, nBin+sg.binRoom
	}
	s.windows, s.off = clipSpare(s.windows[:nWin]), clipSpare(s.off[:nWin])
	s.counts = clipSpare(s.counts[:nBin])
	s.totalBins = int(nBin)
	if scoring {
		s.internBuilt(ids[:nBin])
		s.freq = newFreqIndex(s)
	} else {
		s.ids = clipSpare(ids[:nBin])
	}
	if len(s.entities) > 0 {
		s.avgBins = float64(s.totalBins) / float64(len(s.entities))
	}
	return s
}

// internBuilt gives a scoring store its cell column from the staged ids
// of its bins, laid out like its counts: serially, in ordinal then column
// order, each cell is assigned the next dense index on first sight, so the
// indices are the same for every worker count.
func (s *Store) internBuilt(ids []geo.CellID) {
	s.cellIndex = make(map[geo.CellID]int32)
	s.cells = make([]int32, len(ids), cap(s.counts))
	for j, id := range ids {
		s.cells[j] = s.intern(id)
	}
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

// mustScore panics on a signature store: a zero IDF weight or an empty
// compiled view there would be a silently wrong score, not a missing one.
func (s *Store) mustScore(op string) {
	if s.freq == nil {
		panic("history: " + op + " on a signature store (columns only)")
	}
}

// NumEntities returns the number of entities with a history.
func (s *Store) NumEntities() int { return len(s.entities) }

// Entities returns the sorted entity ids. The slice must not be modified.
func (s *Store) Entities() []model.EntityID { return s.entities }

// Ordinals returns the side's entity table.
func (s *Store) Ordinals() *Ordinals { return s.ords }

// segAt returns the segment of an ordinal, or nil if the store holds no
// history for it.
func (s *Store) segAt(ord uint32) *segment {
	if int(ord) >= len(s.segs) || s.segs[ord].nWin == 0 {
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
	w, nw, b, nb := sg.win, sg.nWin, sg.bin, sg.nBin
	return History{
		Entity:  s.ords.ID(ord),
		windows: s.windows[w : w+nw : w+nw],
		off:     s.off[w : w+nw+1 : w+nw+1],
		ids:     binRange(s.ids, b, nb),
		cells:   binRange(s.cells, b, nb),
		table:   s.geoms,
		counts:  s.counts[b : b+nb : b+nb],
	}
}

// binRange returns the n elements of a per-bin column from position b on,
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
// history size shift) or a new time-location bin (bin→entity frequencies
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

// ResidentBytes sums the capacities of what the store retains: the window
// and bin column families (the df column included), the segment table and
// entity list, the cell table, the frequency index and the IDF table. The
// side's entity table, which its two stores share, reports its own
// (Ordinals.ResidentBytes); the id strings both list are the records'.
func (s *Store) ResidentBytes() int64 {
	n := 8*cap(s.windows) + 4*cap(s.off) + 8*cap(s.ids) + 4*cap(s.cells) +
		8*cap(s.counts) + 4*cap(s.df) +
		int(unsafe.Sizeof(segment{}))*cap(s.segs) + int(unsafe.Sizeof(model.EntityID("")))*cap(s.entities) +
		int(unsafe.Sizeof(geo.CellGeom{}))*cap(s.geoms) + int(mapBytes(s.cellIndex)) +
		int(unsafe.Sizeof(binWeight{}))*cap(s.addScratch) + 4*cap(s.stale) + 8*cap(s.idfs)
	if f := s.freq; f != nil {
		n += 8*cap(f.windows) + int(unsafe.Sizeof(freqWindow{}))*cap(f.cols)
		for _, w := range f.cols {
			n += 4*cap(w.cells) + 4*cap(w.df)
		}
	}
	return int64(n)
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
