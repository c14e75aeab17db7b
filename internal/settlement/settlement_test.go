package settlement

import (
	"math"
	"strings"
	"testing"

	"whereroam/internal/catalog"
	"whereroam/internal/identity"
	"whereroam/internal/mccmnc"
)

var (
	host = mccmnc.MustParse("23410")  // UK (EU zone in April 2019)
	nl   = mccmnc.MustParse("20404")  // EU home
	mx   = mccmnc.MustParse("334020") // non-EU home
	ee   = mccmnc.MustParse("23430")  // same-country operator
)

func rec(dev int, sim mccmnc.PLMN, mb float64, minutes float64, events int) catalog.DailyRecord {
	return catalog.DailyRecord{
		Device:      identity.DeviceID(dev),
		SIM:         sim,
		Bytes:       uint64(mb * 1e6),
		CallSeconds: minutes * 60,
		Events:      events,
	}
}

func TestRatesFor(t *testing.T) {
	r := DefaultRates()
	if got := r.For(nl, host); got != r.EU {
		t.Error("NL->UK should be EU-regulated")
	}
	if got := r.For(mx, host); got != r.World {
		t.Error("MX->UK should be world rate")
	}
	if r.World.DataPerMB <= r.EU.DataPerMB {
		t.Error("world data rate must exceed the EU cap")
	}
}

func TestSettleBasics(t *testing.T) {
	cat := &catalog.Catalog{Host: host, Days: 22, Records: []catalog.DailyRecord{
		rec(1, nl, 100, 10, 500),  // EU roamer
		rec(1, nl, 50, 0, 300),    // same device, second day
		rec(2, mx, 100, 10, 200),  // world roamer
		rec(3, host, 9999, 99, 1), // native: out of scope
		rec(4, ee, 500, 5, 50),    // national roamer: not international
	}}
	st := Settle(cat, DefaultRates())
	if len(st.Lines) != 2 {
		t.Fatalf("lines = %d, want 2", len(st.Lines))
	}
	// World-rate partner must outrank the EU one despite smaller
	// volume (rates differ by two orders of magnitude).
	if st.Lines[0].Home != mx {
		t.Errorf("top line = %v, want MX", st.Lines[0].Home)
	}
	var nlLine, mxLine PartnerLine
	for _, l := range st.Lines {
		switch l.Home {
		case nl:
			nlLine = l
		case mx:
			mxLine = l
		}
	}
	if nlLine.Devices != 1 || mxLine.Devices != 1 {
		t.Errorf("device counts: nl=%d mx=%d", nlLine.Devices, mxLine.Devices)
	}
	wantNL := 150*0.0045 + 10*0.032
	if math.Abs(nlLine.Revenue-wantNL) > 1e-9 {
		t.Errorf("NL revenue = %f, want %f", nlLine.Revenue, wantNL)
	}
	wantMX := 100*0.50 + 10*0.25
	if math.Abs(mxLine.Revenue-wantMX) > 1e-9 {
		t.Errorf("MX revenue = %f, want %f", mxLine.Revenue, wantMX)
	}
	events := 0
	for _, l := range st.Lines {
		events += l.Events
	}
	if events != 1000 {
		t.Errorf("events = %d, want 1000 (native excluded)", events)
	}
	if math.Abs(st.TotalRevenue()-(wantNL+wantMX)) > 1e-9 {
		t.Errorf("total = %f", st.TotalRevenue())
	}
}

// A device whose SIM changes within its run counts once for each home
// network it was seen with, however often it returns to one.
func TestSettleCountsDeviceOncePerHome(t *testing.T) {
	cat := &catalog.Catalog{Host: host, Days: 22, Records: []catalog.DailyRecord{
		rec(1, nl, 1, 0, 1),
		rec(1, mx, 1, 0, 1),
		rec(1, nl, 1, 0, 1),
		rec(2, nl, 1, 0, 1),
	}}
	devices := map[mccmnc.PLMN]int{}
	for _, l := range Settle(cat, DefaultRates()).Lines {
		devices[l.Home] = l.Devices
	}
	if devices[nl] != 2 || devices[mx] != 1 || len(devices) != 2 {
		t.Errorf("devices per home = %v, want nl 2 and mx 1", devices)
	}
}

func TestSettleEmptyCatalog(t *testing.T) {
	st := Settle(&catalog.Catalog{Host: host, Days: 22}, DefaultRates())
	if len(st.Lines) != 0 || st.TotalRevenue() != 0 {
		t.Error("empty catalog should settle to zero")
	}
}

func TestStatementString(t *testing.T) {
	cat := &catalog.Catalog{Host: host, Days: 22, Records: []catalog.DailyRecord{
		rec(1, nl, 10, 1, 5),
	}}
	s := Settle(cat, DefaultRates()).String()
	if !strings.Contains(s, "Vodafone NL") || !strings.Contains(s, "EUR") {
		t.Errorf("statement = %q", s)
	}
}

func TestEconomicsByGroup(t *testing.T) {
	cat := &catalog.Catalog{Host: host, Days: 22, Records: []catalog.DailyRecord{
		// An m2m device: heavy signaling, almost no billable volume.
		rec(1, nl, 0.01, 0, 900),
		// A smartphone tourist: light signaling, real volume.
		rec(2, nl, 200, 20, 100),
		// A native device that must be skipped.
		rec(3, host, 1000, 100, 1000),
	}}
	groups := map[identity.DeviceID]string{1: "m2m", 2: "smart"}
	ecos := EconomicsByGroup(cat, DefaultRates(), func(dev identity.DeviceID) string {
		return groups[dev]
	})
	if len(ecos) != 2 {
		t.Fatalf("groups = %d", len(ecos))
	}
	var m2m, smart ClassEconomics
	for _, e := range ecos {
		switch e.Group {
		case "m2m":
			m2m = e
		case "smart":
			smart = e
		}
	}
	// The paper's §9 statement: m2m dominates occupancy, smartphones
	// dominate revenue.
	if m2m.EventShare <= smart.EventShare {
		t.Errorf("m2m event share %.3f should exceed smart %.3f", m2m.EventShare, smart.EventShare)
	}
	if m2m.RevenueShare >= smart.RevenueShare {
		t.Errorf("m2m revenue share %.3f should trail smart %.3f", m2m.RevenueShare, smart.RevenueShare)
	}
	if m2m.RevenuePerDevice >= smart.RevenuePerDevice {
		t.Error("per-device revenue ordering broken")
	}
	// Shares must sum to 1 across groups.
	if math.Abs(m2m.EventShare+smart.EventShare-1) > 1e-9 {
		t.Error("event shares do not sum to 1")
	}
	if math.Abs(m2m.RevenueShare+smart.RevenueShare-1) > 1e-9 {
		t.Error("revenue shares do not sum to 1")
	}
}

// EconomicsByGroup asks for each device's group once, whatever the
// number of its records, and still counts every record's volume.
func TestEconomicsByGroupCallsGroupOfOncePerDevice(t *testing.T) {
	cat := &catalog.Catalog{Host: host, Days: 22, Records: []catalog.DailyRecord{
		rec(1, nl, 1, 0, 10),
		rec(1, nl, 1, 0, 10),
		rec(1, nl, 1, 0, 10),
		rec(2, mx, 1, 0, 5),
		rec(3, host, 1, 0, 5),
		rec(3, host, 1, 0, 5),
	}}
	calls := map[identity.DeviceID]int{}
	ecos := EconomicsByGroup(cat, DefaultRates(), func(dev identity.DeviceID) string {
		calls[dev]++
		if dev == 3 {
			return ""
		}
		return "roamer"
	})
	for dev := identity.DeviceID(1); dev <= 3; dev++ {
		if calls[dev] != 1 {
			t.Errorf("groupOf(%v) called %d times, want 1", dev, calls[dev])
		}
	}
	if len(ecos) != 1 || ecos[0].Devices != 2 || ecos[0].EventShare != 1 {
		t.Errorf("economics = %+v, want one group of 2 devices holding every inbound event", ecos)
	}
}
