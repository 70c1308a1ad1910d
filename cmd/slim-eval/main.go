// Command slim-eval grades a links CSV (u,v,score — the slim-link output)
// against a ground-truth CSV (e,i — the slim-gen -sample output), printing
// precision, recall and F1. It completes the CLI workflow:
//
//	slim-gen -kind cab -sample -dir wl
//	slim-link -e wl/E.csv -i wl/I.csv > links.csv
//	slim-eval -links links.csv -truth wl/truth.csv
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"os"

	"slim"
)

func main() {
	var (
		linksPath = flag.String("links", "", "links CSV (u,v[,score]) — required")
		truthPath = flag.String("truth", "", "truth CSV (e,i) — required")
	)
	flag.Parse()
	if *linksPath == "" || *truthPath == "" {
		fmt.Fprintln(os.Stderr, "slim-eval: both -links and -truth are required")
		flag.Usage()
		os.Exit(2)
	}
	links, err := readPairs(*linksPath, "u")
	if err != nil {
		fatal(err)
	}
	truthPairs, err := readPairs(*truthPath, "e")
	if err != nil {
		fatal(err)
	}
	truth := make(map[slim.EntityID]slim.EntityID, len(truthPairs))
	for _, p := range truthPairs {
		truth[p.U] = p.V
	}
	m := slim.Evaluate(links, truth)
	fmt.Printf("links:     %d\n", len(links))
	fmt.Printf("truth:     %d\n", len(truth))
	fmt.Printf("tp/fp/fn:  %d/%d/%d\n", m.TP, m.FP, m.FN)
	fmt.Printf("precision: %.4f\n", m.Precision)
	fmt.Printf("recall:    %.4f\n", m.Recall)
	fmt.Printf("f1:        %.4f\n", m.F1)
}

// readPairs parses two-or-more-column CSV rows into links (a third column,
// the score, is not read), skipping a header row whose first cell matches
// headerFirst.
func readPairs(path, headerFirst string) ([]slim.Link, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	cr := csv.NewReader(f)
	cr.FieldsPerRecord = -1
	var out []slim.Link
	line := 0
	for {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("slim-eval: %s: %w", path, err)
		}
		line++
		if len(row) < 2 {
			return nil, fmt.Errorf("slim-eval: %s line %d: need at least 2 columns", path, line)
		}
		if line == 1 && row[0] == headerFirst {
			continue
		}
		out = append(out, slim.Link{U: slim.EntityID(row[0]), V: slim.EntityID(row[1])})
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "slim-eval:", err)
	os.Exit(1)
}
