package catalog

import (
	"bytes"
	"testing"
	"time"

	"whereroam/internal/cdrs"
	"whereroam/internal/identity"
	"whereroam/internal/radio"
	"whereroam/internal/rng"
)

// radioDays is the window of the per-day ingest feeds.
const radioDays = 4

// dayFeed is one entry of a per-day feed: one device-day's radio
// events, handed over together, or a CDR/xDR.
type dayFeed struct {
	evs []radio.Event
	rec *cdrs.Record
}

// radioDayFeed draws a feed the dataset capture could make, and the
// inputs it never makes: device-days of time-sorted radio events with
// tied instants, failed events, late TACs and sectors off the grid,
// CDRs that open a day before its radio does, days outside the window
// (also less than a day before it) and groups that break
// AddRadioDay's precondition — mixed devices, instants out of order,
// a day boundary crossed.
func radioDayFeed(src *rng.Source) []dayFeed {
	var feed []dayFeed
	for dev := 0; dev < 40; dev++ {
		d := identity.DeviceID(1000 + dev)
		for day := -1; day <= radioDays; day++ {
			dayStart := start.Add(time.Duration(day) * 24 * time.Hour)
			if day == -1 && dev%3 == 0 {
				// Less than a day before the window: still outside.
				dayStart = start.Add(-time.Hour)
			}
			if src.Bool(0.3) {
				feed = append(feed, dayFeed{rec: &cdrs.Record{Device: d, Time: dayStart.Add(time.Minute), SIM: nlSIM,
					Visited: nlSIM, Kind: cdrs.KindData, RAT: radio.RAT3G, Bytes: 10}})
			}
			if !src.Bool(0.8) {
				continue
			}
			n := 1 + src.Intn(40)
			evs := make([]radio.Event, 0, n)
			t := dayStart
			for e := 0; e < n; e++ {
				if src.Bool(0.7) { // else a tie with the previous instant
					t = t.Add(time.Duration(src.Int63n(int64(time.Hour))))
				}
				if day >= 0 && !t.Before(dayStart.Add(24*time.Hour)) {
					break
				}
				var tac identity.TAC
				if src.Bool(0.2) {
					tac = identity.TAC(35600000 + src.Intn(5))
				}
				res := radio.ResultOK
				if src.Bool(0.15) {
					res = radio.ResultFail
				}
				evs = append(evs, radio.Event{Device: d, Time: t, SIM: nlSIM, TAC: tac,
					Sector: radio.SectorID(src.Intn(30*30 + 20)), Interface: radio.Interface(src.Intn(6)), Result: res})
			}
			switch {
			case len(evs) > 2 && src.Bool(0.05):
				evs[1].Device++ // mixed devices
			case len(evs) > 2 && src.Bool(0.05):
				evs[0], evs[1] = evs[1], evs[0] // out of order
			case src.Bool(0.05):
				evs = append(evs, radio.Event{Device: d, Time: dayStart.Add(30 * time.Hour), SIM: nlSIM,
					Interface: radio.IfGb, Result: radio.ResultOK}) // crosses into the next day
			}
			feed = append(feed, dayFeed{evs: evs})
		}
	}
	return feed
}

// AddRadioDay leaves the catalog AddRadioEvent leaves, event by event,
// on every input: the catalogs' CSV renderings are byte-identical.
func TestAddRadioDayMatchesAddRadioEvent(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		feed := radioDayFeed(rng.New(seed))
		perEvent := NewBuilder(host, start, radioDays, ukGrid(t))
		perDay := NewBuilder(host, start, radioDays, ukGrid(t))
		for _, it := range feed {
			if it.rec != nil {
				perEvent.AddRecord(*it.rec)
				perDay.AddRecord(*it.rec)
				continue
			}
			for i := range it.evs {
				perEvent.AddRadioEvent(it.evs[i])
			}
			perDay.AddRadioDay(it.evs)
		}
		var want, got bytes.Buffer
		if err := perEvent.Build().WriteCSV(&want); err != nil {
			t.Fatal(err)
		}
		if err := perDay.Build().WriteCSV(&got); err != nil {
			t.Fatal(err)
		}
		if want.Len() < 1000 {
			t.Fatalf("seed %d: the per-event catalog is only %d bytes", seed, want.Len())
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("seed %d: AddRadioDay's catalog differs from AddRadioEvent's\n got %s\nwant %s", seed, got.Bytes(), want.Bytes())
		}
	}
}

// AddRadioDay sizes a row's visit list once: ingesting a device-day
// costs about one allocation however many events it holds, where
// appending visit by visit grows the list about log2(n) times.
func TestAddRadioDayAllocationsPerDay(t *testing.T) {
	const events = 48
	days := make([][]radio.Event, 200*radioDays)
	for i := range days {
		dev, day := identity.DeviceID(i/radioDays), i%radioDays
		evs := make([]radio.Event, events)
		for e := range evs {
			evs[e] = radio.Event{Device: dev, Time: start.Add(time.Duration(day)*24*time.Hour + time.Duration(e)*time.Minute),
				SIM: nlSIM, Sector: radio.SectorID(e % 7), Interface: radio.IfGb, Result: radio.ResultOK}
		}
		days[i] = evs
	}
	grid := ukGrid(t)
	allocs := testing.AllocsPerRun(5, func() {
		b := NewBuilder(host, start, radioDays, grid)
		for _, evs := range days {
			b.AddRadioDay(evs)
		}
	})
	// One visit list per row, plus the builder's device table, slots
	// and row chunks: amortized growth, but one slot block per device
	// under the race detector, which keeps append(s, make(...)...)
	// from eliding its temporary.
	if perDay := allocs / float64(len(days)); perDay > 1.5 {
		t.Fatalf("%.2f allocations per %d-event device-day, want at most 1.5", perDay, events)
	}
}

// A record less than a day before the window start lies outside the
// window, as does one a day or more before it: window days round down,
// and only [start, start+days) maps to [0, days).
func TestBuilderDropsPreWindowRecords(t *testing.T) {
	b := NewBuilder(host, start, 2, ukGrid(t))
	for i, off := range []time.Duration{-time.Nanosecond, -time.Hour, -23 * time.Hour, -25 * time.Hour} {
		dev := identity.DeviceID(i + 1)
		at := start.Add(off)
		b.AddRecord(cdrs.Record{Device: dev, Time: at, SIM: nlSIM, Visited: host, Kind: cdrs.KindData, RAT: radio.RAT2G, Bytes: 1})
		b.AddRadioEvent(radio.Event{Device: dev, Time: at, SIM: nlSIM, Interface: radio.IfGb, Result: radio.ResultOK})
		b.AddRadioDay([]radio.Event{{Device: dev, Time: at, SIM: nlSIM, Interface: radio.IfGb, Result: radio.ResultOK}})
	}
	b.AddRecord(cdrs.Record{Device: 9, Time: start, SIM: nlSIM, Visited: host, Kind: cdrs.KindData, RAT: radio.RAT2G, Bytes: 7})
	cat := b.Build()
	if len(cat.Records) != 1 || cat.Records[0].Device != 9 || cat.Records[0].Day != 0 || cat.Records[0].Bytes != 7 {
		t.Fatalf("records = %+v, want only device 9's day 0", cat.Records)
	}
}
