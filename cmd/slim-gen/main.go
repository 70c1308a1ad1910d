// Command slim-gen generates the synthetic mobility workloads of the SLIM
// reproduction, either as one ground-truth dataset or as a sampled linkage
// problem (two anonymized sides plus a truth file), in the canonical CSV
// layout (entity,lat,lng,unix).
//
// Generate a ground dataset:
//
//	slim-gen -kind cab -taxis 530 -days 24 -out cab.csv
//	slim-gen -kind sm -users 30000 -days 26 -out sm.csv
//
// Generate a linkage problem (E.csv, I.csv, truth.csv in -dir):
//
//	slim-gen -kind cab -sample -ratio 0.5 -inclusion 0.5 -dir ./workload
package main

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"

	"slim"
	"slim/internal/model"
)

func main() {
	var (
		kind     = flag.String("kind", "cab", "dataset kind: cab | sm")
		out      = flag.String("out", "", "output CSV path (default stdout)")
		seed     = flag.Int64("seed", 1, "generator seed")
		taxis    = flag.Int("taxis", 60, "cab: number of taxis")
		interval = flag.Float64("interval", 180, "cab: mean seconds between records")
		users    = flag.Int("users", 2000, "sm: number of users")
		avgRecs  = flag.Float64("avg-records", 24, "sm: mean check-ins per user")
		days     = flag.Int("days", 4, "trace length in days")

		sample    = flag.Bool("sample", false, "emit a sampled linkage problem instead of one dataset")
		dir       = flag.String("dir", ".", "sample: output directory for E.csv, I.csv, truth.csv")
		ratio     = flag.Float64("ratio", 0.5, "sample: entity intersection ratio")
		inclusion = flag.Float64("inclusion", 0.5, "sample: record inclusion probability (both sides)")
		perSide   = flag.Int("per-side", 0, "sample: cap entities per side (0 = max)")
	)
	flag.Parse()

	var ground slim.Dataset
	switch *kind {
	case "cab":
		ground = slim.GenerateCab(slim.CabOptions{
			NumTaxis:              *taxis,
			Days:                  *days,
			MeanRecordIntervalSec: *interval,
			Seed:                  *seed,
		})
	case "sm":
		ground = slim.GenerateSM(slim.SMOptions{
			NumUsers:   *users,
			Days:       *days,
			AvgRecords: *avgRecs,
			Seed:       *seed,
		})
	default:
		fmt.Fprintf(os.Stderr, "slim-gen: unknown kind %q\n", *kind)
		os.Exit(2)
	}

	if !*sample {
		if err := writeDataset(*out, &ground); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "slim-gen: %d records, %d entities\n",
			ground.Len(), len(ground.Entities()))
		return
	}

	w := slim.SampleWorkload(&ground, slim.SampleOptions{
		IntersectionRatio: *ratio,
		InclusionProbE:    *inclusion,
		InclusionProbI:    *inclusion,
		SizePerSide:       *perSide,
		Seed:              *seed + 1,
	})
	if err := writeDataset(filepath.Join(*dir, "E.csv"), &w.E); err != nil {
		fatal(err)
	}
	if err := writeDataset(filepath.Join(*dir, "I.csv"), &w.I); err != nil {
		fatal(err)
	}
	if err := writeTruth(filepath.Join(*dir, "truth.csv"), w.Truth); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "slim-gen: E=%d records/%d entities, I=%d records/%d entities, %d true pairs\n",
		w.E.Len(), len(w.E.Entities()), w.I.Len(), len(w.I.Entities()), len(w.Truth))
}

func writeDataset(path string, d *slim.Dataset) error {
	if path == "" {
		return slim.WriteDatasetCSV(os.Stdout, d)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := slim.WriteDatasetCSV(f, d); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeTruth writes the true pairs sorted by E id, so that one seed
// always writes the same file.
func writeTruth(path string, truth map[slim.EntityID]slim.EntityID) error {
	buf := []byte("e,i\n")
	for _, e := range slices.Sorted(maps.Keys(truth)) {
		buf = model.AppendCSVField(buf, string(e))
		buf = append(buf, ',')
		buf = model.AppendCSVField(buf, string(truth[e]))
		buf = append(buf, '\n')
	}
	return os.WriteFile(path, buf, 0o666)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "slim-gen:", err)
	os.Exit(1)
}
