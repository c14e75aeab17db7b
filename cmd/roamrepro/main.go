// Command roamrepro regenerates the paper's tables and figures from
// the synthetic datasets and prints them in the harness's text form.
// Archiving and replaying the SMIP feed are roamstore's verbs.
//
// Usage:
//
//	roamrepro                       # run every experiment
//	roamrepro -experiment fig11     # one experiment
//	roamrepro -scale 1.0 -seed 7    # bigger population, other seed
//	roamrepro -sites 2              # federation size for the fed-* experiments
//	roamrepro -list                 # show experiment ids
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"whereroam/internal/dataset"
	"whereroam/internal/experiments"
	"whereroam/internal/mccmnc"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("roamrepro: ")
	var (
		id      = flag.String("experiment", "all", "experiment id or 'all'")
		seed    = flag.Uint64("seed", 1, "generator seed")
		scale   = flag.Float64("scale", 0.5, "population scale factor (1.0 ≈ a tenth of paper scale)")
		workers = flag.Int("workers", runtime.GOMAXPROCS(0), "pipeline worker pool size (results are identical for any value)")
		sites   = flag.Int("sites", 0, "federation sites for the fed-* experiments (0 = default footprint)")
		list    = flag.Bool("list", false, "list experiment ids and exit")
	)
	flag.Parse()

	if *list {
		for _, r := range experiments.All() {
			fmt.Printf("%-15s %s\n", r.ID, r.Title)
		}
		return
	}

	var hosts []mccmnc.PLMN
	if def := dataset.DefaultFederationHosts(); *sites > 0 && *sites < len(def) {
		hosts = def[:*sites]
	}
	sess := experiments.NewFederation(*seed, *scale, *workers, hosts...)
	runners := experiments.All()
	if *id != "all" {
		r, ok := experiments.ByID(*id)
		if !ok {
			log.Printf("unknown experiment %q; available:", *id)
			for _, r := range runners {
				log.Printf("  %s", r.ID)
			}
			os.Exit(2)
		}
		runners = []experiments.Runner{r}
	}
	for _, r := range runners {
		start := time.Now()
		rep := r.Run(sess)
		fmt.Println(rep)
		fmt.Printf("(%s ran in %v)\n\n", r.ID, time.Since(start).Round(time.Millisecond))
	}
}
