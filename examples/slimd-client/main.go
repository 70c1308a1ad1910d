// Example slimd-client drives a running slimd service end to end: it
// generates the standard synthetic Cab workload, streams both anonymized
// datasets into the service in batches, triggers a linkage run, pages the
// links back out, and grades them against the ground truth it kept.
//
// Start the service first, then run the client:
//
//	go run ./cmd/slimd -addr :8080 &
//	go run ./examples/slimd-client -addr http://localhost:8080
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"strings"

	"slim"
)

type wireRecord struct {
	Entity string  `json:"entity"`
	Lat    float64 `json:"lat"`
	Lng    float64 `json:"lng"`
	Unix   int64   `json:"unix"`
}

func main() {
	addr := flag.String("addr", "http://localhost:8080", "slimd base URL")
	taxis := flag.Int("taxis", 24, "synthetic taxis in the ground trace")
	flag.Parse()

	ground := slim.GenerateCab(slim.CabOptions{
		NumTaxis: *taxis, Days: 2, MeanRecordIntervalSec: 360, Seed: 99,
	})
	w := slim.SampleWorkload(&ground, slim.SampleOptions{
		IntersectionRatio: 0.5, InclusionProbE: 0.5, InclusionProbI: 0.5, Seed: 100,
	})
	fmt.Printf("streaming %d + %d records into %s\n", w.E.Len(), w.I.Len(), *addr)

	ingest(*addr, "e", w.E.Records)
	ingest(*addr, "i", w.I.Records)

	var run struct {
		Links     int     `json:"links"`
		Matched   int     `json:"matched"`
		Threshold float64 `json:"threshold"`
		ElapsedMs float64 `json:"elapsed_ms"`
	}
	post(*addr+"/v1/link", nil, &run)
	fmt.Printf("linked: %d links (of %d matched) at threshold %.4g in %.1fms\n",
		run.Links, run.Matched, run.Threshold, run.ElapsedMs)

	var page struct {
		Total int `json:"total"`
		Links []struct {
			U     string  `json:"u"`
			V     string  `json:"v"`
			Score float64 `json:"score"`
		} `json:"links"`
	}
	get(*addr + "/v1/links")(&page)
	var links []slim.Link
	for _, l := range page.Links {
		links = append(links, slim.Link{U: slim.EntityID(l.U), V: slim.EntityID(l.V), Score: l.Score})
	}
	m := slim.Evaluate(links, w.Truth)
	fmt.Printf("graded against ground truth: precision %.3f, recall %.3f, F1 %.3f\n",
		m.Precision, m.Recall, m.F1)
	for i, l := range page.Links {
		if i == 5 {
			fmt.Printf("  ... and %d more\n", len(page.Links)-5)
			break
		}
		fmt.Printf("  %s <-> %s  %.4f\n", l.U, l.V, l.Score)
	}

	// The service maintains its scored edges and LSH candidates as state:
	// show the incremental blocks after the bulk load, then re-observe a
	// handful of existing records (a ~1% weight-only burst) and relink —
	// the second set of stats makes the savings visible: almost every pair
	// retained, only the dirty entities' pairs rescored.
	printIncrementalStats(*addr, "after bulk load")
	burst := w.E.Records[:min(100, len(w.E.Records))]
	ingest(*addr, "e", burst)
	post(*addr+"/v1/link", nil, &run)
	fmt.Printf("relinked after re-observing %d records in %.1fms\n", len(burst), run.ElapsedMs)
	printIncrementalStats(*addr, "after incremental burst")

	// Every published link is fully explainable: GET /v1/explain joins the
	// score decomposition, the LSH candidate lineage, the retained-edge
	// lineage, and the flight-recorder entry of the run that produced it.
	if len(page.Links) > 0 {
		printExplain(*addr, page.Links[0].U, page.Links[0].V)
	}

	// The same numbers (and ~25 more families) are exported in Prometheus
	// text form for scraping; show the freshness and stage-timing excerpt.
	printMetricsExcerpt(*addr)
}

// printExplain fetches the provenance document for one pair and prints
// a digest: top contributing windows, candidate band collisions, edge
// lineage run stamps, and the producing run's decision and stage times.
func printExplain(addr, u, v string) {
	var ex struct {
		Version uint64 `json:"version"`
		Score   struct {
			Total   float64 `json:"total"`
			Norm    float64 `json:"norm"`
			Windows []struct {
				Window int64   `json:"window"`
				Sum    float64 `json:"sum"`
				Pairs  []struct {
					Contribution float64 `json:"contribution"`
				} `json:"pairs"`
			} `json:"windows"`
		} `json:"score"`
		Candidates *struct {
			BandCount  int32 `json:"band_count"`
			Collisions []struct {
				Band int `json:"band"`
			} `json:"collisions"`
		} `json:"candidates"`
		Edge struct {
			Score            float64 `json:"score"`
			RescoredSeq      uint64  `json:"rescored_seq"`
			RetainedSinceSeq uint64  `json:"retained_since_seq"`
		} `json:"edge"`
		Run *struct {
			Trigger      string  `json:"trigger"`
			ShortCircuit bool    `json:"short_circuit"`
			FullRescore  bool    `json:"full_rescore"`
			DurationMs   float64 `json:"duration_ms"`
			Rescored     int64   `json:"rescored"`
			Retained     int64   `json:"retained"`
		} `json:"run"`
	}
	get(fmt.Sprintf("%s/v1/explain?e=%s&i=%s", addr, url.QueryEscape(u), url.QueryEscape(v)))(&ex)
	fmt.Printf("explaining link %s <-> %s (GET /v1/explain):\n", u, v)
	fmt.Printf("  score %.4f over %d common windows (norm %.4g)\n",
		ex.Score.Total, len(ex.Score.Windows), ex.Score.Norm)
	for i, wnd := range ex.Score.Windows {
		if i == 3 {
			fmt.Printf("    ... and %d more windows\n", len(ex.Score.Windows)-3)
			break
		}
		fmt.Printf("    window %d: %d cell pairs contribute %.4g\n", wnd.Window, len(wnd.Pairs), wnd.Sum)
	}
	if c := ex.Candidates; c != nil {
		fmt.Printf("  candidates: surfaced by %d LSH band collisions\n", c.BandCount)
	}
	fmt.Printf("  edge: score %.4f last rescored by run %d, retained since run %d\n",
		ex.Edge.Score, ex.Edge.RescoredSeq, ex.Edge.RetainedSinceSeq)
	if r := ex.Run; r != nil {
		fmt.Printf("  producing run: trigger=%s full=%v short_circuit=%v rescored=%d retained=%d in %.1fms\n",
			r.Trigger, r.FullRescore, r.ShortCircuit, r.Rescored, r.Retained, r.DurationMs)
	}
}

// printMetricsExcerpt scrapes GET /metrics and prints the observability
// headline: end-to-end freshness (ingest -> link-visible latency and the
// current staleness watermark) plus the per-stage relink breakdown.
func printMetricsExcerpt(addr string) {
	resp, err := http.Get(addr + "/metrics")
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		fatal(fmt.Errorf("GET %s/metrics: %s", addr, resp.Status))
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		fatal(err)
	}
	fmt.Println("metrics excerpt (GET /metrics):")
	keep := []string{
		"slim_ingest_to_visible_seconds_sum",
		"slim_ingest_to_visible_seconds_count",
		"slim_link_staleness_seconds",
		"slim_relink_seconds_sum",
		"slim_relink_seconds_count",
		"slim_relink_stage_seconds_sum",
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		for _, prefix := range keep {
			if strings.HasPrefix(line, prefix) {
				fmt.Println("  " + line)
				break
			}
		}
	}
}

// printIncrementalStats fetches /v1/stats and prints the edge-store and
// candidate-index blocks (the incremental-relink observability surface).
func printIncrementalStats(addr, when string) {
	var stats struct {
		RunsShortCircuited uint64 `json:"runs_short_circuited"`
		EdgeStore          *struct {
			Pairs           int64   `json:"pairs"`
			Epoch           uint64  `json:"epoch"`
			RetainedLast    int64   `json:"retained_last"`
			RescoredLast    int64   `json:"rescored_last"`
			DroppedLast     int64   `json:"dropped_last"`
			FullRescoreLast bool    `json:"full_rescore_last"`
			LastUpdateMs    float64 `json:"last_update_ms"`
		} `json:"edge_store"`
		CandidateIndex *struct {
			Candidates        int64   `json:"candidates"`
			SignaturesE       int     `json:"signatures_e"`
			SignaturesI       int     `json:"signatures_i"`
			DirtyEntitiesLast int     `json:"dirty_entities_last"`
			LastUpdateMs      float64 `json:"last_update_ms"`
		} `json:"candidate_index"`
	}
	get(addr + "/v1/stats")(&stats)
	fmt.Printf("%s (short-circuited runs: %d)\n", when, stats.RunsShortCircuited)
	if es := stats.EdgeStore; es != nil {
		fmt.Printf("  edge_store: %d pairs held, last relink retained %d / rescored %d / dropped %d (full=%v) in %.2fms\n",
			es.Pairs, es.RetainedLast, es.RescoredLast, es.DroppedLast, es.FullRescoreLast, es.LastUpdateMs)
	} else {
		fmt.Println("  edge_store: (no relink yet)")
	}
	if ci := stats.CandidateIndex; ci != nil {
		fmt.Printf("  candidate_index: %d candidates over %d+%d signatures, last update re-signed %d entities in %.2fms\n",
			ci.Candidates, ci.SignaturesE, ci.SignaturesI, ci.DirtyEntitiesLast, ci.LastUpdateMs)
	} else {
		fmt.Println("  candidate_index: (lsh disabled; start slimd with -lsh to enable the filter)")
	}
}

// ingest streams one dataset in batches of 500 records.
func ingest(addr, ds string, recs []slim.Record) {
	const batch = 500
	for i := 0; i < len(recs); i += batch {
		hi := min(i+batch, len(recs))
		wire := make([]wireRecord, 0, hi-i)
		for _, r := range recs[i:hi] {
			wire = append(wire, wireRecord{
				Entity: string(r.Entity), Lat: r.LatLng.Lat, Lng: r.LatLng.Lng, Unix: r.Unix,
			})
		}
		post(addr+"/v1/datasets/"+ds+"/records", map[string]any{"records": wire}, nil)
	}
}

func post(url string, body, out any) {
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			fatal(err)
		}
	}
	resp, err := http.Post(url, "application/json", &buf)
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		var msg bytes.Buffer
		msg.ReadFrom(resp.Body)
		fatal(fmt.Errorf("POST %s: %s: %s", url, resp.Status, msg.String()))
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			fatal(err)
		}
	}
}

func get(url string) func(any) {
	return func(out any) {
		resp, err := http.Get(url)
		if err != nil {
			fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode >= 300 {
			fatal(fmt.Errorf("GET %s: %s", url, resp.Status))
		}
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "slimd-client:", err)
	os.Exit(1)
}
