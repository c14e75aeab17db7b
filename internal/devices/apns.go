package devices

import (
	"whereroam/internal/apn"
	"whereroam/internal/mccmnc"
	"whereroam/internal/rng"
)

// APN pools per vertical. These are generator-side: they produce the
// strings that appear in xDRs; the classifier in internal/core keeps
// its own keyword table, discovered the way the paper describes
// (ranking APNs by device count), so the two lists overlap but are
// not the same object — preserving the methodological gap the paper
// works across.

// energyAPNs are the smart-meter APNs. The five UK energy players the
// paper identifies (§4.4) appear as Network Identifier patterns on
// SIMs homed at one NL operator.
var energyAPNs = []string{
	"smhp.centricaplc.com",
	"meter.rwe-npower.co.uk",
	"smart.elster-metering.com",
	"amr.generalelectric.com",
	"data.bglobal-services.co.uk",
	"smartgrid.edfenergy.com",
	"telemetry.sse-metering.co.uk",
}

// automotiveAPNs serve connected cars.
var automotiveAPNs = []string{
	"telematics.scania.com",
	"connecteddrive.bmw.de",
	"car.audi-connect.de",
	"fleet.daimler-tss.com",
	"uconnect.psa-groupe.fr",
	"link.volvocars.se",
}

// trackerAPNs serve logistics and asset tracking.
var trackerAPNs = []string{
	"track.logistics-m2m.com",
	"asset.fleetwatch.net",
	"gps.cargotrace.io",
}

// posAPNs serve payment terminals.
var posAPNs = []string{
	"pos.payment-gw.com",
	"terminal.cardservices.net",
}

// wearableAPNs serve SIM-enabled wearables.
var wearableAPNs = []string{
	"wearable.health-link.com",
	"watch.connectivity.io",
}

// consumerAPNs are the generic operator APNs people-devices use; they
// carry no vertical signal (the paper finds 2,178 such strings).
var consumerAPNs = []string{
	"internet", "web", "mobile.data", "payandgo.telco.co.uk",
	"contract.telco.co.uk", "wap.provider.net", "mms.provider.net",
	"broadband.mobile", "prepay.internet", "data.roaming",
}

// pickAPN draws an APN from the pool and homes it on the operator.
func pickAPN(src *rng.Source, pool []string, home mccmnc.PLMN) apn.APN {
	a := apn.MustParse(pool[src.Intn(len(pool))])
	a.Operator = home
	return a
}

// ConsumerAPN draws a generic consumer APN without an operator suffix
// (subscriber-facing form).
func ConsumerAPN(src *rng.Source) apn.APN {
	return apn.MustParse(consumerAPNs[src.Intn(len(consumerAPNs))])
}
