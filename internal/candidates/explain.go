package candidates

import "fmt"

// BucketHash is a band's 64-bit bucket hash. It exceeds 2^53, so as text
// (and so in JSON) it is 16 hex digits rather than a number a JavaScript
// consumer would silently round.
type BucketHash uint64

func (h BucketHash) MarshalText() ([]byte, error) {
	return fmt.Appendf(nil, "%016x", uint64(h)), nil
}

// BandCollision names one band in which a pair's two entities currently
// hash into the same bucket, with the bucket's occupancy on both sides —
// the "why is this pair a candidate" evidence (a collision in a crowded
// bucket is weaker evidence of similarity than one in a tight bucket).
// The json tags here and on PairExplain are the keys of /v1/explain's
// candidates block, which encodes a PairExplain as it is.
type BandCollision struct {
	// Band is the absolute band index: the band of rows
	// [Band·Rows, (Band+1)·Rows).
	Band int64 `json:"band"`
	// Hash is the shared bucket hash within the band.
	Hash BucketHash `json:"hash"`
	// BucketE / BucketI are the bucket's current member counts per side
	// (both include the pair's own endpoints).
	BucketE int `json:"bucket_e"`
	BucketI int `json:"bucket_i"`
}

// PairExplain is the lineage of one pair through the incremental LSH
// filter: whether each endpoint has a maintained signature, whether the
// pair is currently a candidate, which bands collide (with bucket sizes),
// and the rows per band the answer is read under. It is a pure read over
// the maintained band keys and postings — Explain adds no state to the
// index and costs O(bands of the two endpoints) binary searches.
type PairExplain struct {
	// HasU / HasV report whether the index maintains band keys for each
	// endpoint (false for unknown or never-signed entities).
	HasU bool `json:"has_u"`
	HasV bool `json:"has_v"`
	// Candidate reports whether the pair is currently in the candidate
	// set, which by definition is BandCount > 0; BandCount is its current
	// band-collision count, len(Collisions).
	Candidate bool  `json:"candidate"`
	BandCount int32 `json:"band_count"`
	// Collisions lists the currently colliding bands in band order.
	Collisions []BandCollision `json:"collisions,omitempty"`
	// Rows is the index's rows per band (see Stats).
	Rows int `json:"rows"`
}

// Explain reports the candidate lineage of one pair, named by the two
// sides' entity ordinals; an ordinal the index has never signed (or that
// no table has assigned) reports HasU / HasV false. Like every other
// index read it is not safe concurrently with Update; callers serialize
// it with linker mutations.
func (x *Index) Explain(u, v uint32) PairExplain {
	ex := PairExplain{Rows: int(x.rows)}
	su, sv := &x.sides[SideE], &x.sides[SideI]
	keysU, keysV := su.bandsOf(u), sv.bandsOf(v)
	ex.HasU, ex.HasV = len(keysU) > 0, len(keysV) > 0
	for i, j := 0, 0; i < len(keysU) && j < len(keysV); {
		switch a, b := keysU[i], keysV[j]; {
		case a.band < b.band:
			i++
		case a.band > b.band:
			j++
		default:
			if a.hash == b.hash {
				bc := BandCollision{Band: a.band, Hash: BucketHash(a.hash)}
				bc.BucketE, bc.BucketI = len(su.post.run(a)), len(sv.post.run(a))
				ex.Collisions = append(ex.Collisions, bc)
			}
			i, j = i+1, j+1
		}
	}
	ex.BandCount = int32(len(ex.Collisions))
	ex.Candidate = ex.BandCount > 0
	return ex
}
