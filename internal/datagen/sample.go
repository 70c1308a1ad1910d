package datagen

import (
	"fmt"
	"math"
	"math/rand"

	"slim/internal/model"
)

// SampleConfig controls how two linkage inputs are drawn from one ground
// dataset, mirroring Sec. 5.1 of the paper.
type SampleConfig struct {
	// IntersectionRatio is the fraction of entities common to both sides:
	// |common| / |entities per side|. Default 0.5 (the paper's default).
	IntersectionRatio float64
	// InclusionProbE / InclusionProbI are the per-record inclusion
	// probabilities of each side; the paper uses one knob for both
	// (default 0.5). Separate knobs support asymmetric-density studies.
	InclusionProbE float64
	InclusionProbI float64
	// SizePerSide caps the entities per side; 0 takes the maximum
	// n = floor(N / (2 - ratio)) permitted by the ground dataset.
	SizePerSide int
	// MinRecords drops entities with ≤ MinRecords records after
	// downsampling (the paper drops entities with ≤ 5 records).
	MinRecords int
	// Seed drives entity selection and record downsampling.
	Seed int64
}

func (c *SampleConfig) defaults() {
	if c.IntersectionRatio == 0 {
		c.IntersectionRatio = 0.5
	}
	if c.InclusionProbE == 0 {
		c.InclusionProbE = 0.5
	}
	if c.InclusionProbI == 0 {
		c.InclusionProbI = 0.5
	}
	if c.MinRecords == 0 {
		c.MinRecords = 5
	}
}

// Sampled is a linkage workload: two anonymized datasets plus ground truth.
type Sampled struct {
	E model.Dataset
	I model.Dataset
	// Truth maps E entity ids to their true I counterparts, restricted to
	// entities that survived downsampling and filtering on both sides.
	Truth map[model.EntityID]model.EntityID
	// CommonPlanned is the number of entities drawn as common before
	// record downsampling (recall denominators use len(Truth)).
	CommonPlanned int
}

// Sample draws the two overlapping subsets from the ground dataset and
// downsamples records per side, relabeling entities with side-specific
// anonymous ids.
//
// The ground is grouped once (entities in id order, each one's records in
// time order); each side is reserved once, for every record its entities
// hold, and an entity's records are truncated away as soon as they fail
// the MinRecords filter.
func Sample(src *model.Dataset, cfg SampleConfig) Sampled {
	cfg.defaults()
	r := rand.New(rand.NewSource(cfg.Seed))
	g := src.GroupByEntity(-1)
	n := len(g.Entities)
	entities := make([]int, n) // entities of g, in drawn order
	for k := range entities {
		entities[k] = k
	}
	r.Shuffle(n, func(i, j int) { entities[i], entities[j] = entities[j], entities[i] })

	ratio := cfg.IntersectionRatio
	if ratio < 0 {
		ratio = 0
	}
	if ratio > 1 {
		ratio = 1
	}
	perSide := int(math.Floor(float64(n) / (2 - ratio)))
	if cfg.SizePerSide > 0 && cfg.SizePerSide < perSide {
		perSide = cfg.SizePerSide
	}
	if perSide < 1 && n > 0 {
		perSide = 1
	}
	common := int(math.Round(ratio * float64(perSide)))
	if common > perSide {
		common = perSide
	}
	exclusive := perSide - common
	if common+2*exclusive > n {
		exclusive = (n - common) / 2
	}

	commonIDs := entities[:common]
	eOnly := entities[common : common+exclusive]
	iOnly := entities[common+exclusive : common+2*exclusive]
	records := func(ks []int) int {
		total := 0
		for _, k := range ks {
			total += g.Len[k]
		}
		return total
	}

	out := Sampled{
		E:             model.Dataset{Name: src.Name + "-E", Records: make([]model.Record, 0, records(commonIDs)+records(eOnly))},
		I:             model.Dataset{Name: src.Name + "-I", Records: make([]model.Record, 0, records(commonIDs)+records(iOnly))},
		Truth:         make(map[model.EntityID]model.EntityID, common),
		CommonPlanned: common,
	}

	// Anonymized, side-specific ids with shuffled numbering so that id
	// order carries no linkage signal.
	eIDs := anonIDs(r, "e", common+len(eOnly))
	iIDs := anonIDs(r, "i", common+len(iOnly))

	// addSide appends the records of ground entity k that the side draws,
	// relabeled dstID, and reports whether the entity passes the filter.
	addSide := func(ds *model.Dataset, k int, dstID model.EntityID, prob float64) bool {
		start := len(ds.Records)
		for _, rec := range g.Of(k) {
			if r.Float64() >= prob {
				continue
			}
			rec.Entity = dstID
			ds.Records = append(ds.Records, rec)
		}
		if len(ds.Records)-start > cfg.MinRecords {
			return true
		}
		ds.Records = ds.Records[:start]
		return false
	}

	for j, k := range commonIDs {
		inE := addSide(&out.E, k, eIDs[j], cfg.InclusionProbE)
		if inI := addSide(&out.I, k, iIDs[j], cfg.InclusionProbI); inE && inI {
			out.Truth[eIDs[j]] = iIDs[j]
		}
	}
	for j, k := range eOnly {
		addSide(&out.E, k, eIDs[common+j], cfg.InclusionProbE)
	}
	for j, k := range iOnly {
		addSide(&out.I, k, iIDs[common+j], cfg.InclusionProbI)
	}
	return out
}

// anonIDs builds n shuffled anonymous ids with the given prefix.
func anonIDs(r *rand.Rand, prefix string, n int) []model.EntityID {
	ids := make([]model.EntityID, n)
	perm := r.Perm(n)
	for k := 0; k < n; k++ {
		ids[k] = model.EntityID(fmt.Sprintf("%s-%05d", prefix, perm[k]))
	}
	return ids
}

// AvgRecordsPerEntity reports the dataset's record density.
func AvgRecordsPerEntity(d *model.Dataset) float64 {
	ents := d.Entities()
	if len(ents) == 0 {
		return 0
	}
	return float64(len(d.Records)) / float64(len(ents))
}
