// Package settlement models the inter-operator wholesale economics
// behind the paper's revenue argument (§2.1, §6, §9): visited
// operators charge roaming partners per unit of data/voice their
// inbound roamers consume, while signaling ("background traffic",
// §7.1) is not billable. The paper's point — M2M devices occupy radio
// resources without generating the traffic that produces roaming
// revenue — becomes a computable statement here: the share of radio
// events a class causes versus the share of wholesale revenue it
// brings.
package settlement

import (
	"fmt"
	"sort"

	"whereroam/internal/catalog"
	"whereroam/internal/identity"
	"whereroam/internal/mccmnc"
)

// RateCard is a wholesale inter-operator tariff.
type RateCard struct {
	// DataPerMB is the charge per megabyte of data, in euro.
	DataPerMB float64
	// VoicePerMin is the charge per minute of voice, in euro.
	VoicePerMin float64
}

// Rates selects the tariff per home network. EU regulation caps
// intra-EEA wholesale rates far below rest-of-world bilateral rates
// (the "roam like at home" regime the paper notes ES benefits from).
type Rates struct {
	// EU applies when both the home network's and the host's country
	// are in the EU/EEA regulation zone.
	EU RateCard
	// World applies otherwise.
	World RateCard
}

// DefaultRates returns wholesale caps of the measurement era (2019):
// the EU wholesale data cap was 4.50 EUR/GB (≈0.0045/MB) with voice
// around 0.032 EUR/min; rest-of-world bilateral rates commonly ran
// two orders of magnitude higher.
func DefaultRates() Rates {
	return Rates{
		EU:    RateCard{DataPerMB: 0.0045, VoicePerMin: 0.032},
		World: RateCard{DataPerMB: 0.50, VoicePerMin: 0.25},
	}
}

// For returns the applicable card for a home network observed by
// host.
func (r Rates) For(home, host mccmnc.PLMN) RateCard {
	hc, ok1 := mccmnc.CountryByMCC(home.MCC)
	vc, ok2 := mccmnc.CountryByMCC(host.MCC)
	if ok1 && ok2 && hc.EU && vc.EU {
		return r.EU
	}
	return r.World
}

// PartnerLine is the settlement position against one home operator.
type PartnerLine struct {
	Home    mccmnc.PLMN
	Devices int
	// MB and Minutes are the billable volumes.
	MB      float64
	Minutes float64
	// Events counts the (non-billable) radio events those devices
	// caused.
	Events int
	// Revenue is the wholesale amount owed to the host, in euro.
	Revenue float64
}

// Statement is a settlement run over one observation window.
type Statement struct {
	Host  mccmnc.PLMN
	Days  int
	Lines []PartnerLine
}

// Settle computes the host's inbound-roaming settlement over a
// devices-catalog: every device whose SIM belongs to a foreign
// operator contributes its data/voice volumes at the applicable rate.
// Native and MVNO devices are out of scope (retail, not wholesale).
// A line's Devices counts each device once per home network; the count
// relies on each device's records being one contiguous run
// (catalog.Catalog's Records invariant), so remembering the last
// device counted per home is enough.
func Settle(cat *catalog.Catalog, rates Rates) *Statement {
	type acc struct {
		devices int
		last    identity.DeviceID
		mb      float64
		minutes float64
		events  int
	}
	byHome := map[mccmnc.PLMN]*acc{}
	for i := range cat.Records {
		rec := &cat.Records[i]
		if mccmnc.SameCountry(rec.SIM, cat.Host) {
			continue // not an international inbound roamer
		}
		a := byHome[rec.SIM]
		if a == nil {
			a = &acc{}
			byHome[rec.SIM] = a
		}
		if a.devices == 0 || a.last != rec.Device {
			a.devices++
			a.last = rec.Device
		}
		a.mb += float64(rec.Bytes) / 1e6
		a.minutes += rec.CallSeconds / 60
		a.events += rec.Events
	}
	st := &Statement{Host: cat.Host, Days: cat.Days}
	for home, a := range byHome {
		card := rates.For(home, cat.Host)
		st.Lines = append(st.Lines, PartnerLine{
			Home:    home,
			Devices: a.devices,
			MB:      a.mb,
			Minutes: a.minutes,
			Events:  a.events,
			Revenue: a.mb*card.DataPerMB + a.minutes*card.VoicePerMin,
		})
	}
	sort.Slice(st.Lines, func(i, j int) bool { return st.Lines[i].Revenue > st.Lines[j].Revenue })
	return st
}

// TotalRevenue sums the statement.
func (s *Statement) TotalRevenue() float64 {
	t := 0.0
	for _, l := range s.Lines {
		t += l.Revenue
	}
	return t
}

// String renders a compact settlement summary.
func (s *Statement) String() string {
	out := fmt.Sprintf("settlement for %s over %d days: %.2f EUR across %d partners\n",
		s.Host, s.Days, s.TotalRevenue(), len(s.Lines))
	for i, l := range s.Lines {
		if i >= 10 {
			out += fmt.Sprintf("  ... %d more partners\n", len(s.Lines)-i)
			break
		}
		name := l.Home.String()
		if op, ok := mccmnc.Lookup(l.Home); ok {
			name = op.Name
		}
		out += fmt.Sprintf("  %-16s %6d devices %12.1f MB %10.1f min %10.2f EUR\n",
			name, l.Devices, l.MB, l.Minutes, l.Revenue)
	}
	return out
}

// ClassEconomics contrasts resource occupancy with revenue per device
// group — the paper's §6/§9 argument in one structure.
type ClassEconomics struct {
	Group        string
	Devices      int
	EventShare   float64 // share of all inbound radio events
	RevenueShare float64 // share of all inbound wholesale revenue
	// RevenuePerDevice is the average wholesale value of one device
	// over the window, in euro.
	RevenuePerDevice float64
}

// EconomicsByGroup computes occupancy-vs-revenue per device group.
// groupOf returns a device's label ("m2m", "smart", ...) and is called
// once per device; non-inbound devices must be mapped to "" to be
// skipped. It walks cat.Records device by device (catalog.Devices), so
// it relies on each device's records being one contiguous run: a
// device split into two runs would be counted twice.
func EconomicsByGroup(cat *catalog.Catalog, rates Rates, groupOf func(identity.DeviceID) string) []ClassEconomics {
	type acc struct {
		devices int
		events  int
		revenue float64
	}
	groups := map[string]*acc{}
	var totalEvents int
	var totalRevenue float64
	for run := range catalog.Devices(cat.Records) {
		g := groupOf(run[0].Device)
		if g == "" {
			continue
		}
		a := groups[g]
		if a == nil {
			a = &acc{}
			groups[g] = a
		}
		a.devices++
		for i := range run {
			rec := &run[i]
			card := rates.For(rec.SIM, cat.Host)
			rev := float64(rec.Bytes)/1e6*card.DataPerMB + rec.CallSeconds/60*card.VoicePerMin
			a.events += rec.Events
			a.revenue += rev
			totalEvents += rec.Events
			totalRevenue += rev
		}
	}
	out := make([]ClassEconomics, 0, len(groups))
	for g, a := range groups {
		ce := ClassEconomics{Group: g, Devices: a.devices, RevenuePerDevice: a.revenue / float64(a.devices)}
		if totalEvents > 0 {
			ce.EventShare = float64(a.events) / float64(totalEvents)
		}
		if totalRevenue > 0 {
			ce.RevenueShare = a.revenue / totalRevenue
		}
		out = append(out, ce)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Group < out[j].Group })
	return out
}
