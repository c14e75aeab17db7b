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
	"io"
	"os"

	"whereroam/internal/analysis"
	"whereroam/internal/catalog"
	"whereroam/internal/cli"
	"whereroam/internal/core"
	"whereroam/internal/dataset"
	"whereroam/internal/gsma"
)

func main() { cli.Main("roamclass", run) }

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("roamclass", flag.ContinueOnError)
	var (
		in       = fs.String("in", "catalog.csv", "devices-catalog CSV input")
		gsmaSeed = fs.Uint64("gsma-seed", 1, "seed of the synthetic GSMA catalog the dataset was generated with")
		showAPNs = fs.Bool("apns", false, "print the validated APN list (classification step 1)")
	)
	if err := cli.Parse(fs, args); err != nil {
		return err
	}

	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	cat, err := catalog.ReadCSV(f)
	if err != nil {
		return fmt.Errorf("%s: %w", *in, err)
	}

	pop := core.Derive(cat, gsma.Synthesize(*gsmaSeed),
		core.NewLabeler(cat.Host, dataset.MVNO1, dataset.MVNO2), 0)

	fmt.Fprintf(stdout, "catalog: host %s, %d days, %d records, %d devices\n\n",
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
	fmt.Fprintln(stdout, lt)

	// Classes.
	b := core.Breakdown(pop.Results)
	ct := analysis.NewTable("class", "devices", "share")
	for _, c := range []core.Class{core.ClassSmart, core.ClassFeat, core.ClassM2M, core.ClassM2MMaybe} {
		ct.AddRow(c.String(), b[c], float64(b[c])/float64(len(pop.Results)))
	}
	fmt.Fprintln(stdout, ct)

	if *showAPNs {
		fmt.Fprintln(stdout, "validated M2M APNs:")
		for _, a := range core.NewClassifier().ValidatedAPNs(pop.Sums) {
			fmt.Fprintln(stdout, "  "+a.String())
		}
	}
	return nil
}
