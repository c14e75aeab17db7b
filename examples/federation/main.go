// Federation walkthrough: one shared cellular world — GSMA catalog,
// roaming agreements, a global IoT/M2M fleet and its per-day presence
// schedule — observed by three visited operators at once, the paper's
// Table 1/§5 situation. Each site builds its own devices-catalog
// through the full per-event measurement path and runs labeling and
// classification locally; the cross-site views then validate that
// every operator derives consistent roaming labels and (mostly) the
// same classes for the shared fleet. The federated SMIP and M2M
// planes are further views of the same fleet: the §7 smart-meter
// slice per site, and the §3/§6 signaling stream whose every
// transaction follows the schedule.
//
// Run with:
//
//	go run ./examples/federation
//	go run ./examples/federation -scale 0.05    # smaller and faster
package main

import (
	"flag"
	"fmt"

	"whereroam"
)

func main() {
	scale := flag.Float64("scale", 0.15, "population scale factor")
	flag.Parse()

	// A federation is a session observed from several visited MNOs;
	// no hosts means the default three-site footprint (UK, DE, SE).
	// Workers 0 = one per CPU; results are identical for any count.
	fed := whereroam.NewFederation(42, *scale, 0)

	// The shared plane: every site joins the same GSMA catalog and
	// sees slices of the same fleet — and the presence schedule makes
	// those slices mutually exclusive day by day.
	data := fed.FederationData()
	fmt.Printf("world: %v\nshared fleet: %d devices over %d days\n\n",
		data.World, len(data.Fleet), data.Days)

	// Each Site is a full single-MNO analysis — catalog, summaries,
	// labels, classification — built from that operator's own capture.
	for _, site := range fed.Sites() {
		inbound := 0
		for i := range site.Summaries() {
			sum := &site.Summaries()[i]
			if l, ok := site.Label(sum.Device); ok && l.InboundRoamer() {
				inbound++
			}
		}
		fmt.Printf("site %v: %d devices in catalog, %d fleet roamers present, %d inbound\n",
			site.Host(), len(site.Summaries()), len(site.Data.Present), inbound)
	}

	// The federated planes: the same fleet viewed as the §3/§6
	// signaling stream and as per-site §7 smart-meter datasets.
	m2m := fed.FederationM2M()
	fmt.Printf("\nfederated M2M plane: %d transactions from %d fleet devices\n",
		m2m.Transactions(), m2m.Devices())
	for _, site := range fed.FederationSMIP().Sites {
		native := 0
		for _, isNative := range site.Native {
			if isNative {
				native++
			}
		}
		fmt.Printf("federated SMIP site %v: %d meters (%d native), %d catalog records\n",
			site.Host, len(site.Devices), native, len(site.Catalog.Records))
	}

	// Cross-site validation: the fed-* runners produce the per-site
	// breakdown, the label/class agreement matrices, the federated
	// classifier comparison and the plane summaries.
	for _, id := range []string{"fed-sites", "fed-agreement", "fed-validation", "fed-smip", "fed-m2m"} {
		r, _ := whereroam.ExperimentByID(id)
		fmt.Printf("\n%s\n", r.Run(fed))
	}
}
