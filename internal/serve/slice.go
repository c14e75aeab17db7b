package serve

import (
	"whereroam/internal/catalog"
	"whereroam/internal/core"
	"whereroam/internal/identity"
)

// slice is one cached read model: a replayed catalog plus the
// classified population the handlers read from it. A slice is
// immutable after construction, so any number of request goroutines
// read it without synchronization; determinism is inherited from the
// replay and core.Derive (bit-identical at any worker count).
type slice struct {
	cat  *catalog.Catalog
	pop  *core.Population
	cost int64
}

// Per-element cost estimates for the cache bound. They deliberately
// overshoot the raw struct sizes to cover slice headers and the
// strings hanging off summaries; the bound is a residency
// budget, not an accounting exercise.
const (
	costBase    = 4096
	costRecord  = 320
	costSummary = 640
)

// newSlice derives the read model from a replayed catalog. The GSMA
// database is not part of the archive, so summaries carry no
// device-info join and classification uses the archive-derivable
// evidence only (APN keywords, APN validation, property closure) —
// the same footing the fed-serve experiments runner computes on.
func newSlice(cat *catalog.Catalog, workers int) *slice {
	pop := core.Derive(cat, nil, core.NewLabeler(cat.Host), workers)
	return &slice{
		cat:  cat,
		pop:  pop,
		cost: costBase + int64(len(cat.Records))*costRecord + int64(len(pop.Sums))*costSummary,
	}
}

// SiteStats is the per-operator catalog view of one slice: the
// whole-window population, usage totals and label/class mixes —
// roamd's /v1/sites/{site}/stats body and the values the fed-serve
// experiments runner reports.
type SiteStats struct {
	// Site is the mount name (the observing operator's PLMN).
	Site string `json:"site"`
	// Days is the store's declared observation-window length.
	Days int `json:"days"`
	// Devices is the number of distinct devices in the slice.
	Devices int `json:"devices"`
	// Records is the number of device-day aggregates.
	Records int `json:"records"`
	// Events, FailedEvents, Calls, CallSeconds and Bytes total the
	// slice's usage counters.
	Events int `json:"events"`
	// FailedEvents is the failed-event total.
	FailedEvents int `json:"failed_events"`
	// Calls is the voice-call total.
	Calls int `json:"calls"`
	// CallSeconds is the voice-duration total, accumulated in sorted
	// device order so the float sum is deterministic.
	CallSeconds float64 `json:"call_seconds"`
	// Bytes is the data-volume total.
	Bytes uint64 `json:"bytes"`
	// Inbound counts devices labeled I:H (foreign SIM on the home
	// network — the paper's inbound roamers).
	Inbound int `json:"inbound"`
	// InboundShare is Inbound over Devices.
	InboundShare float64 `json:"inbound_share"`
	// InboundM2MShare is the share of inbound devices classified m2m
	// or m2m-maybe (Table 1's headline observation).
	InboundM2MShare float64 `json:"inbound_m2m_share"`
	// Classes counts devices per classifier verdict.
	Classes map[string]int `json:"classes"`
	// Labels counts devices per roaming label.
	Labels map[string]int `json:"labels"`
}

// statsOf computes the SiteStats view of a slice.
func statsOf(site string, days int, sl *slice) *SiteStats {
	st := &SiteStats{
		Site:    site,
		Days:    days,
		Devices: len(sl.pop.Sums),
		Records: len(sl.cat.Records),
		Classes: map[string]int{},
		Labels:  map[string]int{},
	}
	inboundM2M := 0
	pop := sl.pop
	for i := range pop.Sums {
		s := &pop.Sums[i]
		st.Events += s.Events
		st.FailedEvents += s.FailedEvents
		st.Calls += s.Calls
		st.CallSeconds += s.CallSeconds
		st.Bytes += s.Bytes
		st.Classes[pop.Results[i].Class.String()]++
		st.Labels[pop.Labels[i].String()]++
		if pop.Labels[i].InboundRoamer() {
			st.Inbound++
			if c := pop.Results[i].Class; c == core.ClassM2M || c == core.ClassM2MMaybe {
				inboundM2M++
			}
		}
	}
	if st.Devices > 0 {
		st.InboundShare = float64(st.Inbound) / float64(st.Devices)
	}
	if st.Inbound > 0 {
		st.InboundM2MShare = float64(inboundM2M) / float64(st.Inbound)
	}
	return st
}

// ComputeStats derives the serving layer's per-site stats view
// directly from a replayed catalog — the exact computation roamd's
// stats endpoint serves from its cached slice. The fed-serve
// experiments runner calls this, which is what makes the daemon's
// responses bit-identical to the runner's reported values.
func ComputeStats(site string, days int, cat *catalog.Catalog, workers int) *SiteStats {
	return statsOf(site, days, newSlice(cat, workers))
}

// DayRow is one day's aggregate inside a DaySlice.
type DayRow struct {
	// Day is the window day index.
	Day int `json:"day"`
	// Devices is the number of distinct devices active that day.
	Devices int `json:"devices"`
	// Records is the number of device-day aggregates for the day
	// (equal to Devices: a catalog holds one record per device-day).
	Records int `json:"records"`
	// Events, Calls and Bytes total the day's usage.
	Events int `json:"events"`
	// Calls is the day's voice-call count.
	Calls int `json:"calls"`
	// Bytes is the day's data volume.
	Bytes uint64 `json:"bytes"`
}

// DaySlice is the day-range summary roamd serves for
// /v1/sites/{site}/days?lo=&hi=: per-day aggregate rows over the
// pruned replay of exactly that range.
type DaySlice struct {
	// Site is the mount name.
	Site string `json:"site"`
	// Lo and Hi bound the slice (inclusive window day indices).
	Lo int `json:"lo"`
	// Hi is the inclusive upper day bound.
	Hi int `json:"hi"`
	// Devices counts distinct devices across the range.
	Devices int `json:"devices"`
	// Records counts device-day aggregates across the range.
	Records int `json:"records"`
	// Rows holds one aggregate per day, in day order; days with no
	// activity are omitted.
	Rows []DayRow `json:"rows"`
}

// ComputeDaySlice derives the day-range view from a catalog already
// replayed under a Days(lo, hi) filter.
func ComputeDaySlice(site string, lo, hi int, cat *catalog.Catalog) *DaySlice {
	ds := &DaySlice{Site: site, Lo: lo, Hi: hi, Records: len(cat.Records)}
	ds.Rows, ds.Devices = dayRows(cat)
	return ds
}

// dayRows is the one pass every per-day view shares: one aggregate row
// per active day, in day order, and the number of distinct devices. A
// built catalog holds one record per (device, day), sorted by that
// pair with every day inside [0, cat.Days), so catalog.Devices yields
// each device once and a day's distinct devices are its records.
func dayRows(cat *catalog.Catalog) (rows []DayRow, devices int) {
	byDay := make([]DayRow, cat.Days)
	for run := range catalog.Devices(cat.Records) {
		devices++
		for i := range run {
			r := &run[i]
			row := &byDay[r.Day]
			row.Records++
			row.Events += r.Events
			row.Calls += r.Calls
			row.Bytes += r.Bytes
		}
	}
	for d := range byDay {
		if row := &byDay[d]; row.Records > 0 {
			row.Day, row.Devices = d, row.Records
			rows = append(rows, *row)
		}
	}
	return rows, devices
}

// DeviceView is the single-device lookup body: the device's window
// summary joined with its classification and roaming label, rebuilt
// from a device-pruned replay.
type DeviceView struct {
	// Device is the 16-hex-digit anonymized device ID.
	Device string `json:"device"`
	// SIM is the device's home PLMN.
	SIM string `json:"sim"`
	// TAC is the device's GSMA type allocation code.
	TAC string `json:"tac"`
	// ActiveDays counts window days with any activity.
	ActiveDays int `json:"active_days"`
	// FirstDay and LastDay bound the device's observed activity.
	FirstDay int `json:"first_day"`
	// LastDay is the last active window day.
	LastDay int `json:"last_day"`
	// Events, FailedEvents, Calls, CallSeconds and Bytes total the
	// device's usage.
	Events int `json:"events"`
	// FailedEvents is the failed-event total.
	FailedEvents int `json:"failed_events"`
	// Calls is the voice-call total.
	Calls int `json:"calls"`
	// CallSeconds is the voice-duration total.
	CallSeconds float64 `json:"call_seconds"`
	// Bytes is the data-volume total.
	Bytes uint64 `json:"bytes"`
	// Visited lists the networks the device used, first-seen order.
	Visited []string `json:"visited"`
	// APNs lists the distinct access points, first-seen order.
	APNs []string `json:"apns"`
	// Label is the per-operator roaming label (X:Y grammar).
	Label string `json:"label"`
	// Class is the classifier verdict.
	Class string `json:"class"`
	// Evidence names the classifier rule that fired.
	Evidence string `json:"evidence"`
}

// deviceViewAt renders position i of a population.
func deviceViewAt(pop *core.Population, i int) *DeviceView {
	s := &pop.Sums[i]
	v := &DeviceView{
		Device:       s.Device.String(),
		SIM:          s.SIM.Concat(),
		TAC:          s.TAC.String(),
		ActiveDays:   s.ActiveDays,
		FirstDay:     s.FirstDay,
		LastDay:      s.LastDay,
		Events:       s.Events,
		FailedEvents: s.FailedEvents,
		Calls:        s.Calls,
		CallSeconds:  s.CallSeconds,
		Bytes:        s.Bytes,
		Visited:      make([]string, 0, len(s.Visited)),
		APNs:         make([]string, 0, len(s.APNs)),
		Label:        pop.Labels[i].String(),
		Class:        pop.Results[i].Class.String(),
		Evidence:     pop.Results[i].Evidence,
	}
	for _, p := range s.Visited {
		v.Visited = append(v.Visited, p.Concat())
	}
	for _, a := range s.APNs {
		v.APNs = append(v.APNs, a.String())
	}
	return v
}

// ComputeDeviceView derives the device-lookup view from a catalog
// already replayed under a Devices(dev, dev) filter; ok is false when
// the device does not appear in the slice.
func ComputeDeviceView(dev identity.DeviceID, cat *catalog.Catalog, workers int) (*DeviceView, bool) {
	pop := newSlice(cat, workers).pop
	i, ok := pop.Find(dev)
	if !ok {
		return nil, false
	}
	return deviceViewAt(pop, i), true
}

// SeriesPoint is one x/y pair of an analysis series.
type SeriesPoint struct {
	// X is the series coordinate (a day index, an active-day count).
	X float64 `json:"x"`
	// Y is the measured value at X.
	Y float64 `json:"y"`
}

// Series is one on-demand analysis over a site's whole-window slice —
// the archive-derivable counterparts of the paper's figure sweeps
// (activity distributions rather than radio-plane figures, since the
// archive persists the CDR/xDR plane only).
type Series struct {
	// Site is the mount name.
	Site string `json:"site"`
	// Name is the series identifier.
	Name string `json:"name"`
	// Points holds the series in ascending X order.
	Points []SeriesPoint `json:"points"`
}

// Analysis series names.
const (
	// SeriesActiveDays is the distribution of per-device active-day
	// counts (the §5 activity shape: most M2M devices are active on
	// many window days).
	SeriesActiveDays = "active_days"
	// SeriesDailyDevices is the number of distinct active devices per
	// window day.
	SeriesDailyDevices = "daily_devices"
	// SeriesDailyBytes is the total data volume per window day.
	SeriesDailyBytes = "daily_bytes"
)

// SeriesNames lists the analysis series roamd serves.
func SeriesNames() []string {
	return []string{SeriesActiveDays, SeriesDailyDevices, SeriesDailyBytes}
}

// ComputeSeries derives one named analysis series from a
// whole-window slice; ok is false for an unknown name.
func ComputeSeries(site, name string, cat *catalog.Catalog, workers int) (*Series, bool) {
	return seriesOf(site, name, newSlice(cat, workers))
}

// seriesOf computes a named series over a cached slice.
func seriesOf(site, name string, sl *slice) (*Series, bool) {
	se := &Series{Site: site, Name: name}
	switch name {
	case SeriesActiveDays:
		counts := make([]int, sl.cat.Days+1)
		for i := range sl.pop.Sums {
			counts[sl.pop.Sums[i].ActiveDays]++
		}
		for x, n := range counts {
			if n > 0 {
				se.Points = append(se.Points, SeriesPoint{X: float64(x), Y: float64(n)})
			}
		}
	case SeriesDailyDevices:
		rows, _ := dayRows(sl.cat)
		for _, row := range rows {
			se.Points = append(se.Points, SeriesPoint{X: float64(row.Day), Y: float64(row.Devices)})
		}
	case SeriesDailyBytes:
		rows, _ := dayRows(sl.cat)
		for _, row := range rows {
			se.Points = append(se.Points, SeriesPoint{X: float64(row.Day), Y: float64(row.Bytes)})
		}
	default:
		return nil, false
	}
	return se, true
}

// SiteBrief is one site's row inside a CompareView.
type SiteBrief struct {
	// Site is the mount name.
	Site string `json:"site"`
	// Devices, Records, Inbound and InboundShare summarize the site's
	// whole-window slice.
	Devices int `json:"devices"`
	// Records is the site's device-day aggregate count.
	Records int `json:"records"`
	// Inbound counts the site's inbound-roamer devices.
	Inbound int `json:"inbound"`
	// InboundShare is Inbound over Devices.
	InboundShare float64 `json:"inbound_share"`
}

// SharedPair counts the devices two mounted sites both observed —
// the serving-layer form of the paper's cross-operator observation
// that the same global fleets roam into many visited networks.
type SharedPair struct {
	// A and B are the two mount names, A < B lexically.
	A string `json:"a"`
	// B is the second mount name.
	B string `json:"b"`
	// Shared counts devices present in both sites' slices.
	Shared int `json:"shared"`
}

// CompareView is the fed-site comparison body: every mounted site's
// brief plus pairwise shared-device counts.
type CompareView struct {
	// Sites lists one brief per mounted site, in mount-name order.
	Sites []SiteBrief `json:"sites"`
	// Pairs lists pairwise shared-device counts, ordered by (A, B).
	Pairs []SharedPair `json:"pairs"`
}
