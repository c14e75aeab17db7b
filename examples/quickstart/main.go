// Quickstart: simulate a small visited-MNO population, run the
// paper's roaming labeler and M2M classifier over its devices-catalog,
// and check the result against the simulator's ground truth.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"whereroam"
)

func main() {
	// A session bundles the synthetic datasets; factor 0.2 keeps this
	// run under a couple of seconds (~6k devices).
	sess := whereroam.NewSession(42, 0.2)
	mno := sess.MNO()

	// The devices-catalog is the daily per-device aggregate an
	// operator builds from radio logs, CDRs/xDRs and the GSMA TAC
	// database (§4.1). DerivePopulation collapses it per device and
	// joins each device with its roaming label (§4.2: who owns the SIM
	// vs where it attaches — the labeler must know the host's MVNOs to
	// tell V:H from N:H) and its class (§4.3's multi-step M2M
	// classifier). pop.Labels[i] and pop.Results[i] describe
	// pop.Sums[i].
	labeler := whereroam.NewLabeler(mno.Host, mno.MVNOs()...)
	pop := whereroam.DerivePopulation(mno.Catalog, mno.GSMA, labeler, 0)
	fmt.Printf("devices-catalog: %d records, %d devices over %d days\n\n",
		len(mno.Catalog.Records), len(pop.Sums), mno.Days)

	labels := map[whereroam.Label]int{}
	for _, l := range pop.Labels {
		labels[l]++
	}
	fmt.Println("roaming labels:")
	for l, n := range labels {
		fmt.Printf("  %s  %5d devices (%.1f%%)\n", l, n, 100*float64(n)/float64(len(pop.Sums)))
	}

	fmt.Println("\ndevice classes:")
	for class, n := range whereroam.Breakdown(pop.Results) {
		fmt.Printf("  %-10s %5d devices (%.1f%%)\n", class, n, 100*float64(n)/float64(len(pop.Results)))
	}

	// The simulator knows the truth — validate the classifier.
	v, err := whereroam.Validate(pop.Results, mno.Truth)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%s", v)
}
