package candidates

// BandCollision names one band in which a pair's two entities currently
// hash into the same bucket, with the bucket's occupancy on both sides —
// the "why is this pair a candidate" evidence (a collision in a crowded
// bucket is weaker evidence of similarity than one in a tight bucket).
type BandCollision struct {
	// Band is the band index in [0, Bands).
	Band int
	// Hash is the shared bucket hash within the band.
	Hash uint64
	// BucketE / BucketI are the bucket's current member counts per side
	// (both include the pair's own endpoints).
	BucketE, BucketI int
}

// PairExplain is the lineage of one pair through the incremental LSH
// filter: whether each endpoint has a maintained signature, whether the
// pair is currently a candidate, which bands collide (with bucket sizes),
// and the index geometry/epoch the answer is valid under. It is a pure
// read over the maintained band-bucket maps — Explain adds no state to
// the index and costs O(Bands).
type PairExplain struct {
	// HasU / HasV report whether the index maintains a signature for each
	// endpoint (false for unknown or never-signed entities).
	HasU, HasV bool
	// Candidate reports whether the pair is currently in the candidate
	// set, which by definition is BandCount > 0; BandCount is its current
	// band-collision count, len(Collisions).
	Candidate bool
	BandCount int32
	// Collisions lists the currently colliding bands in band order.
	Collisions []BandCollision
	// Epoch / SignatureLen / Bands / Rows describe the index grid the
	// lineage was read under (see Stats).
	Epoch        uint64
	SignatureLen int
	Bands        int
	Rows         int
	// SigVersionU / SigVersionV are the history versions the endpoints'
	// signatures were computed from (0 when the endpoint has none).
	SigVersionU, SigVersionV uint64
}

// Explain reports the candidate lineage of one pair, named by the two
// sides' entity ordinals; an ordinal the index has never signed (or that
// no table has assigned) reports HasU / HasV false. Like every other
// index read it is not safe concurrently with Update; callers serialize
// it with linker mutations.
func (x *Index) Explain(u, v uint32) PairExplain {
	ex := PairExplain{
		Epoch:        x.epoch,
		SignatureLen: x.banding.SigLen,
		Bands:        x.banding.Bands,
		Rows:         x.banding.Rows,
	}
	su, sv := &x.sides[sideE], &x.sides[sideI]
	if int(u) < len(su.signed) && su.signed[u] {
		ex.HasU, ex.SigVersionU = true, su.version[u]
	}
	if int(v) < len(sv.signed) && sv.signed[v] {
		ex.HasV, ex.SigVersionV = true, sv.version[v]
	}
	if !ex.HasU || !ex.HasV {
		return ex
	}
	bands := x.banding.Bands
	for band := 0; band < bands; band++ {
		atU, atV := int(u)*bands+band, int(v)*bands+band
		if !su.hasBand[atU] || !sv.hasBand[atV] || su.bandHash[atU] != sv.bandHash[atV] {
			continue
		}
		bc := BandCollision{Band: band, Hash: su.bandHash[atU]}
		if bkt := x.buckets[band][bc.Hash]; bkt != nil {
			bc.BucketE, bc.BucketI = len(bkt.members[sideE]), len(bkt.members[sideI])
		}
		ex.Collisions = append(ex.Collisions, bc)
	}
	ex.BandCount = int32(len(ex.Collisions))
	ex.Candidate = ex.BandCount > 0
	return ex
}
