// Command roamclass runs the paper's roaming labeler and M2M
// classifier over a devices-catalog CSV (as written by mnosim) and
// prints the population breakdowns of §4.2/§4.3.
//
// Usage:
//
//	roamclass -in catalog.csv
//	roamclass -in catalog.csv -gsma-seed 1 -apns
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"whereroam/internal/analysis"
	"whereroam/internal/catalog"
	"whereroam/internal/core"
	"whereroam/internal/dataset"
	"whereroam/internal/gsma"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("roamclass: ")
	var (
		in       = flag.String("in", "catalog.csv", "devices-catalog CSV input")
		gsmaSeed = flag.Uint64("gsma-seed", 1, "seed of the synthetic GSMA catalog the dataset was generated with")
		showAPNs = flag.Bool("apns", false, "print the validated APN list (classification step 1)")
	)
	flag.Parse()

	f, err := os.Open(*in)
	if err != nil {
		log.Fatal(err)
	}
	cat, err := catalog.ReadCSV(f)
	if err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}

	pop := core.Derive(cat, gsma.Synthesize(*gsmaSeed),
		core.NewLabeler(cat.Host, dataset.MVNO1, dataset.MVNO2), 0)

	fmt.Printf("catalog: host %s, %d days, %d records, %d devices\n\n",
		cat.Host, cat.Days, len(cat.Records), len(pop.Sums))

	// Roaming labels.
	labels := map[core.Label]int{}
	for _, l := range pop.Labels {
		labels[l]++
	}
	lt := analysis.NewTable("label", "devices", "share")
	for _, l := range core.AllLabels {
		lt.AddRow(l.String(), labels[l], float64(labels[l])/float64(len(pop.Sums)))
	}
	fmt.Println(lt)

	// Classes.
	b := core.Breakdown(pop.Results)
	ct := analysis.NewTable("class", "devices", "share")
	for _, c := range []core.Class{core.ClassSmart, core.ClassFeat, core.ClassM2M, core.ClassM2MMaybe} {
		ct.AddRow(c.String(), b[c], float64(b[c])/float64(len(pop.Results)))
	}
	fmt.Println(ct)

	if *showAPNs {
		fmt.Println("validated M2M APNs:")
		for _, a := range core.NewClassifier().ValidatedAPNs(pop.Sums) {
			fmt.Println("  " + a.String())
		}
	}
}
