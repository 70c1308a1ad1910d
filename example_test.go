package slim_test

import (
	"fmt"
	"log"

	"slim"
)

// ExampleLinkDatasets is the package quick start. It has no Output
// comment, so go test compiles it without running it.
func ExampleLinkDatasets() {
	src := slim.GenerateCab(slim.CabOptions{NumTaxis: 20, Days: 2, Seed: 5})
	w := slim.SampleWorkload(&src, slim.SampleOptions{Seed: 6})
	datasetE, datasetI := w.E, w.I

	res, err := slim.LinkDatasets(datasetE, datasetI, slim.Defaults())
	if err != nil {
		log.Fatal(err)
	}
	for _, l := range res.Links {
		fmt.Println(l.U, "<->", l.V, l.Score)
	}
}
