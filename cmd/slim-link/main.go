// Command slim-link links the entities of two mobility-record CSV files
// (entity,lat,lng,unix) and prints the discovered links as CSV on stdout
// (u,v,score), with a run summary on stderr.
//
// Usage:
//
//	slim-link -e serviceA.csv -i serviceB.csv [flags]
//
// Useful flags: -window (minutes), -level (0 = auto-tune), -lsh,
// -lsh-threshold, -lsh-step, -lsh-level, -lsh-buckets, -threshold.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"slim"
	"slim/cmd/internal/linkflags"
	"slim/internal/model"
)

func main() {
	var (
		ePath   = flag.String("e", "", "first dataset CSV (required)")
		iPath   = flag.String("i", "", "second dataset CSV (required)")
		linkage = linkflags.Bind(flag.CommandLine)
	)
	flag.Parse()
	if *ePath == "" || *iPath == "" {
		fmt.Fprintln(os.Stderr, "slim-link: both -e and -i are required")
		flag.Usage()
		os.Exit(2)
	}

	dsE, err := readDataset(*ePath, "E")
	if err != nil {
		fatal(err)
	}
	dsI, err := readDataset(*iPath, "I")
	if err != nil {
		fatal(err)
	}

	res, err := slim.LinkDatasets(dsE, dsI, linkage())
	if err != nil {
		fatal(err)
	}

	if err := writeLinks(os.Stdout, res.Links); err != nil {
		fatal(err)
	}

	fmt.Fprintf(os.Stderr, "slim-link: %d links (of %d matched) in %v\n",
		len(res.Links), len(res.Matched), res.Elapsed)
	fmt.Fprintf(os.Stderr, "  spatial level:     %d\n", res.SpatialLevel)
	fmt.Fprintf(os.Stderr, "  stop threshold:    %.6g (%s)\n", res.Threshold, res.ThresholdMethod)
	fmt.Fprintf(os.Stderr, "  candidate pairs:   %d\n", res.Stats.CandidatePairs)
	fmt.Fprintf(os.Stderr, "  record compares:   %d\n", res.Stats.RecordComparisons)
	fmt.Fprintf(os.Stderr, "  alibi bin pairs:   %d\n", res.Stats.AlibiBinPairs)
	if res.Stats.LSH != nil {
		ix := res.Stats.LSH
		fmt.Fprintf(os.Stderr, "  lsh: rows=%d signatures=%d+%d buckets=%d candidates=%d\n",
			ix.Rows, ix.SignaturesE, ix.SignaturesI, ix.Buckets, ix.Candidates)
	}
}

// writeLinks writes the links CSV (u,v,score) through one buffer: the
// ids quoted as the dataset CSV quotes them, so every csv.Reader parses
// the rows, and the score as %g prints it.
func writeLinks(w io.Writer, links []slim.Link) error {
	out := bufio.NewWriter(w)
	out.WriteString("u,v,score\n")
	for _, l := range links {
		row := model.AppendCSVField(out.AvailableBuffer(), string(l.U))
		row = append(row, ',')
		row = model.AppendCSVField(row, string(l.V))
		row = append(row, ',')
		row = strconv.AppendFloat(row, l.Score, 'g', -1, 64)
		out.Write(append(row, '\n'))
	}
	return out.Flush()
}

func readDataset(path, name string) (slim.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return slim.Dataset{}, err
	}
	defer f.Close()
	return slim.ReadDatasetCSV(f, name)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "slim-link:", err)
	os.Exit(1)
}
