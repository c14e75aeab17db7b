// Revenue: quantify the paper's economic argument (§6/§9) — inbound
// M2M devices occupy the visited network's radio resources while
// generating almost none of the wholesale roaming revenue that pays
// for them. The settlement module prices the devices-catalog with
// 2019-era wholesale rates and contrasts occupancy with income.
//
// Run with:
//
//	go run ./examples/revenue
package main

import (
	"fmt"

	"whereroam"
	"whereroam/internal/core"
	"whereroam/internal/settlement"
)

func main() {
	sess := whereroam.NewSession(5, 0.25)
	mno := sess.MNO()

	// Classify and label the population first — settlement reports
	// are broken down by the classifier's output, exactly what an
	// operator would do.
	labeler := whereroam.NewLabeler(mno.Host, mno.MVNOs()...)
	pop := whereroam.DerivePopulation(mno.Catalog, mno.GSMA, labeler, 0)

	rates := settlement.DefaultRates()
	st := settlement.Settle(mno.Catalog, rates)
	fmt.Print(st)

	fmt.Println("\noccupancy vs revenue (inbound roamers only):")
	ecos := settlement.EconomicsByGroup(mno.Catalog, rates, func(dev whereroam.DeviceID) string {
		i, ok := pop.Find(dev)
		if !ok || !pop.Labels[i].InboundRoamer() {
			return ""
		}
		c := pop.Results[i].Class
		if c == core.ClassM2MMaybe {
			return ""
		}
		return c.String()
	})
	for _, e := range ecos {
		fmt.Printf("  %-6s %6d devices  %5.1f%% of events  %5.1f%% of revenue  %.4f EUR/device\n",
			e.Group, e.Devices, 100*e.EventShare, 100*e.RevenueShare, e.RevenuePerDevice)
	}
	fmt.Println("\nthe m2m row is the paper's point: the machines are there, the money is not.")
}
