package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"slim"
	"slim/internal/ingest"
	"slim/internal/storage"
)

// inputs is everything a workload feeds the program under test: two CSV
// files (the whole linkage problem for link_*, the boot seed for
// serve_*), the truth, and for serve_* the pre-encoded request stream.
type inputs struct {
	ePath   string
	iPath   string
	truth   map[slim.EntityID]slim.EntityID
	flushes []flush
	period  time.Duration
	// concurrentEI sends a flush's two requests on two connections at
	// once (serve_fresh); otherwise E then I on one connection.
	concurrentEI bool
	// pageReads adds the links-page reader on the second connection.
	pageReads bool
	// fingerprint is a cheap hash of the generated records, so a test can
	// tell that a different seed produced different inputs.
	fingerprint uint64
}

// flush is the load due at one tick of the open-loop schedule.
type flush struct {
	reqs [2]request // E then I
}

type request struct {
	path        string
	contentType string
	body        []byte
	tag         byte // storage.TagE or storage.TagI
	recs        []slim.Record
}

// sample generates the ground dataset of a workload and draws the two
// linkage sides from it, exactly as slim-gen -sample does.
func sample(workload string, sc scale, seed int64) slim.SampledWorkload {
	var ground slim.Dataset
	switch workload {
	case "link_cab_brute":
		o := sc.cab
		o.Seed = seed
		ground = slim.GenerateCab(o)
	case "link_sm_lsh":
		o := sc.smLink
		o.Seed = seed
		ground = slim.GenerateSM(o)
	default:
		o := sc.smServe
		o.Seed = seed
		ground = slim.GenerateSM(o)
	}
	return slim.SampleWorkload(&ground, slim.SampleOptions{
		IntersectionRatio: sampleRatio,
		InclusionProbE:    sampleInclusion,
		InclusionProbI:    sampleInclusion,
		Seed:              seed + 1,
	})
}

// generate builds the inputs of one workload in dir: the two CSV files
// and, for serve_*, a stream of seconds / period flushes.
func generate(workload string, sc scale, seed int64, dir string, seconds int) (*inputs, error) {
	w := sample(workload, sc, seed)
	in := &inputs{
		ePath:       filepath.Join(dir, "E.csv"),
		iPath:       filepath.Join(dir, "I.csv"),
		truth:       w.Truth,
		fingerprint: fingerprint(w.E.Records) ^ fingerprint(w.I.Records)<<1,
	}
	seedE, seedI := w.E, w.I // what goes into the CSV files
	flushesIn := func(period time.Duration) int { return int(time.Duration(seconds) * time.Second / period) }
	switch workload {
	case "serve_fresh":
		in.period, in.concurrentEI = sc.freshPeriod, true
		flushCount := flushesIn(in.period)
		var streamE, streamI []slim.Record
		seedE.Records, streamE = splitTail(w.E.Records, flushCount*sc.freshPerReq)
		seedI.Records, streamI = splitTail(w.I.Records, flushCount*sc.freshPerReq)
		for k := 0; k < flushCount; k++ {
			lo, hi := k*sc.freshPerReq, (k+1)*sc.freshPerReq
			if hi > len(streamE) || hi > len(streamI) {
				break
			}
			in.flushes = append(in.flushes, flush{reqs: [2]request{
				jsonRequest(storage.TagE, streamE[lo:hi]),
				jsonRequest(storage.TagI, streamI[lo:hi]),
			}})
		}
	case "serve_revisit":
		in.period, in.pageReads = sc.revisitPeriod, true
		rng := rand.New(rand.NewSource(seed + 2))
		byE, idsE := groupByEntity(w.E.Records)
		byI, idsI := groupByEntity(w.I.Records)
		for k := 0; k < flushesIn(in.period); k++ {
			in.flushes = append(in.flushes, flush{reqs: [2]request{
				frameRequest(storage.TagE, revisit(rng, byE, idsE, sc)),
				frameRequest(storage.TagI, revisit(rng, byI, idsI, sc)),
			}})
		}
	}
	if err := writeCSV(in.ePath, &seedE); err != nil {
		return nil, err
	}
	if err := writeCSV(in.iPath, &seedI); err != nil {
		return nil, err
	}
	return in, nil
}

// splitTail orders records by timestamp and splits off the latest n (at
// most half) as the stream; the rest is the boot seed. The stream ends
// where the dataset ends, so the links published after the last flush
// are those of the whole dataset and their F1 is comparable across seeds.
func splitTail(recs []slim.Record, n int) (seed, stream []slim.Record) {
	sorted := append([]slim.Record(nil), recs...)
	sort.SliceStable(sorted, func(a, b int) bool {
		if sorted[a].Unix != sorted[b].Unix {
			return sorted[a].Unix < sorted[b].Unix
		}
		return sorted[a].Entity < sorted[b].Entity
	})
	cut := len(sorted) - min(n, len(sorted)/2)
	return sorted[:cut], sorted[cut:]
}

func groupByEntity(recs []slim.Record) (map[slim.EntityID][]slim.Record, []slim.EntityID) {
	by := make(map[slim.EntityID][]slim.Record)
	var ids []slim.EntityID
	for _, r := range recs {
		if _, ok := by[r.Entity]; !ok {
			ids = append(ids, r.Entity)
		}
		by[r.Entity] = append(by[r.Entity], r)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return by, ids
}

// revisit draws one request of re-observations: records the service
// already holds, re-sent, all from a random hot set of entities. They
// land in existing bins, so no IDF epoch moves and the relink takes the
// delta paths.
func revisit(rng *rand.Rand, by map[slim.EntityID][]slim.Record, ids []slim.EntityID, sc scale) []slim.Record {
	hot := max(1, int(float64(len(ids))*sc.hotFraction))
	var pool []slim.Record
	for _, k := range rng.Perm(len(ids))[:hot] {
		pool = append(pool, by[ids[k]]...)
	}
	out := make([]slim.Record, sc.revisitPerReq)
	for k := range out {
		out[k] = pool[rng.Intn(len(pool))]
	}
	return out
}

// jsonRecord is the wire form of one record on the JSON ingest route.
type jsonRecord struct {
	Entity string  `json:"entity"`
	Lat    float64 `json:"lat"`
	Lng    float64 `json:"lng"`
	Unix   int64   `json:"unix"`
}

func jsonRequest(tag byte, recs []slim.Record) request {
	dataset := "e"
	if tag == storage.TagI {
		dataset = "i"
	}
	wire := make([]jsonRecord, len(recs))
	for k, r := range recs {
		wire[k] = jsonRecord{string(r.Entity), r.LatLng.Lat, r.LatLng.Lng, r.Unix}
	}
	// Marshalling plain strings, floats and integers cannot fail.
	body, _ := json.Marshal(map[string][]jsonRecord{"records": wire})
	return request{
		path:        "/v1/datasets/" + dataset + "/records",
		contentType: "application/json",
		body:        body,
		tag:         tag,
		recs:        recs,
	}
}

func frameRequest(tag byte, recs []slim.Record) request {
	return request{
		path:        "/v1/ingest/batch",
		contentType: ingest.ContentType,
		body:        storage.AppendFrame(nil, storage.AppendWireBatch(nil, tag, recs)),
		tag:         tag,
		recs:        recs,
	}
}

func writeCSV(path string, d *slim.Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	if err := slim.WriteDatasetCSV(bw, d); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// fingerprint is FNV-1a over the records' timestamps and coordinates.
func fingerprint(recs []slim.Record) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for k := 0; k < 8; k++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	for _, r := range recs {
		mix(uint64(r.Unix))
		mix(uint64(int64(r.LatLng.Lat * 1e7)))
		mix(uint64(int64(r.LatLng.Lng * 1e7)))
	}
	return h
}
