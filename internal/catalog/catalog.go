// Package catalog implements the paper's daily devices-catalog
// (§4.1): the per-device, per-day aggregate view an operator builds
// by merging radio-interface logs, CDRs/xDRs and the GSMA device
// database — total events, calls and bytes, SIM and visited network
// codes, APN strings, device properties, radio-flags, and the
// mobility metrics (weighted centroid and radius of gyration).
//
// Everything downstream — the roaming labels, the M2M classifier and
// all population analyses — consumes this catalog, exactly as in the
// paper.
package catalog

import (
	"cmp"
	"iter"
	"slices"

	"whereroam/internal/apn"
	"whereroam/internal/geo"
	"whereroam/internal/gsma"
	"whereroam/internal/identity"
	"whereroam/internal/mccmnc"
	"whereroam/internal/pipeline"
	"whereroam/internal/radio"
)

// DailyRecord is one device's aggregate for one day.
type DailyRecord struct {
	Device identity.DeviceID
	Day    int // day index within the observation window
	SIM    mccmnc.PLMN
	TAC    identity.TAC

	// Visited lists the networks the device used this day (the host
	// MNO for radio activity; CDRs may add foreign networks for
	// outbound roamers).
	Visited []mccmnc.PLMN

	// Events counts radio resource management events; FailedEvents
	// the subset with failure results.
	Events       int
	FailedEvents int

	// Calls, CallSeconds and Bytes summarize service usage.
	Calls       int
	CallSeconds float64
	Bytes       uint64

	// RadioFlags marks RATs with at least one successful radio
	// communication (the 3×1-bit flags of §4.1); DataRATs/VoiceRATs
	// split them per service domain.
	RadioFlags radio.RATSet
	DataRATs   radio.RATSet
	VoiceRATs  radio.RATSet

	// APNs lists the distinct access points seen in the day's xDRs.
	APNs []apn.APN

	// Centroid and GyrationKm are the day's mobility metrics;
	// HasLocation marks whether any sector position was observed.
	Centroid    geo.Point
	GyrationKm  float64
	HasLocation bool
}

// AddVisited appends the network if not already present.
func (r *DailyRecord) AddVisited(p mccmnc.PLMN) {
	for _, v := range r.Visited {
		if v == p {
			return
		}
	}
	r.Visited = append(r.Visited, p)
}

// AddAPN appends the APN if not already present.
func (r *DailyRecord) AddAPN(a apn.APN) {
	if a.IsZero() {
		return
	}
	for _, x := range r.APNs {
		if x == a {
			return
		}
	}
	r.APNs = append(r.APNs, a)
}

// Catalog is the full observation window.
type Catalog struct {
	// Host is the observing MNO.
	Host mccmnc.PLMN
	// Days is the window length.
	Days int
	// Records holds every device-day aggregate, each device's records
	// as one contiguous run; Devices is the one walk over those runs,
	// and every per-device reader relies on it. Every constructor
	// keeps it: the builders sort by (device, day), the generators
	// emit device by device, and ReadCSV rejects a device that
	// reappears after another device's rows.
	Records []DailyRecord
}

// Devices yields each run of one device's consecutive records in recs,
// in record order, as a capacity-limited window into recs. On a
// catalog's Records (or a sub-range cut at device starts) each run is
// all of one device's records.
func Devices(recs []DailyRecord) iter.Seq[[]DailyRecord] {
	return func(yield func([]DailyRecord) bool) {
		for lo := 0; lo < len(recs); {
			hi := lo + 1
			for hi < len(recs) && recs[hi].Device == recs[lo].Device {
				hi++
			}
			if !yield(recs[lo:hi:hi]) {
				return
			}
			lo = hi
		}
	}
}

// Summary is a device aggregated across the window — the unit the
// classifier and the population analyses operate on.
type Summary struct {
	Device identity.DeviceID
	SIM    mccmnc.PLMN
	TAC    identity.TAC

	// Info is the GSMA join; InfoOK is false when the TAC is absent
	// from the database.
	Info   gsma.DeviceInfo
	InfoOK bool

	ActiveDays   int
	FirstDay     int
	LastDay      int
	Events       int
	FailedEvents int
	Calls        int
	CallSeconds  float64
	Bytes        uint64

	RadioFlags radio.RATSet
	DataRATs   radio.RATSet
	VoiceRATs  radio.RATSet

	APNs    []apn.APN
	Visited []mccmnc.PLMN

	// MeanGyrationKm averages the daily gyration over days with
	// location data; HasLocation is false when no day had any.
	MeanGyrationKm float64
	HasLocation    bool
}

// SummariesWorkers aggregates the catalog per device and joins the
// GSMA database (nil = no join), sorted by device ID, on workers
// goroutines (below one = one worker per CPU, one = serial). It relies
// on Records holding each device's records as one contiguous run:
// each worker sums one range of records (pipeline.PerWorker) whose
// edges move forward to the next device start, so each device is
// summed in one pass in record order, and the result — float sums
// included — is the summary of a catalog holding that device's records
// alone, at every worker count. It panics when a device's records are
// not one run.
func (c *Catalog) SummariesWorkers(db *gsma.DB, workers int) []Summary {
	recs := c.Records
	deviceStart := func(i int) int {
		for i > 0 && i < len(recs) && recs[i].Device == recs[i-1].Device {
			i++
		}
		return i
	}
	parts := pipeline.PerWorker(len(recs), workers, func(sh pipeline.Shard) []Summary {
		return summarize(recs[deviceStart(sh.Lo):deviceStart(sh.Hi)], db)
	})
	out := slices.Concat(parts...)
	slices.SortFunc(out, func(a, b Summary) int { return cmp.Compare(a.Device, b.Device) })
	for i := 1; i < len(out); i++ {
		if out[i].Device == out[i-1].Device {
			panic("catalog: the records of device " + out[i].Device.String() + " are not one contiguous run")
		}
	}
	return out
}

// summarize sums recs, whole device runs, into one Summary per device
// in record order, joined against db when it is not nil. A first pass
// counts the devices and their distinct APNs and visited networks, so
// the summaries fill one exactly sized slice and their lists two
// exactly sized arenas: each summary's lists are capacity-limited
// windows into them (nil when empty), so an append to one copies out.
func summarize(recs []DailyRecord, db *gsma.DB) []Summary {
	var apnBuf [16]apn.APN
	var visBuf [16]mccmnc.PLMN
	nDev, nAPN, nVis := 0, 0, 0
	for run := range Devices(recs) {
		apns, vis := apnBuf[:0], visBuf[:0]
		for i := range run {
			apns = appendDistinct(apns, 0, run[i].APNs)
			vis = appendDistinct(vis, 0, run[i].Visited)
		}
		nDev++
		nAPN += len(apns)
		nVis += len(vis)
	}
	if nDev == 0 {
		return nil
	}
	out := make([]Summary, 0, nDev)
	apns := make([]apn.APN, 0, nAPN)
	vis := make([]mccmnc.PLMN, 0, nVis)
	for run := range Devices(recs) {
		s := Summary{Device: run[0].Device, SIM: run[0].SIM, TAC: run[0].TAC, FirstDay: run[0].Day, LastDay: run[0].Day}
		apnLo, visLo := len(apns), len(vis)
		var gyrSum float64
		var gyrN int
		for i := range run {
			r := &run[i]
			s.ActiveDays++
			s.FirstDay = min(s.FirstDay, r.Day)
			s.LastDay = max(s.LastDay, r.Day)
			s.Events += r.Events
			s.FailedEvents += r.FailedEvents
			s.Calls += r.Calls
			s.CallSeconds += r.CallSeconds
			s.Bytes += r.Bytes
			s.RadioFlags |= r.RadioFlags
			s.DataRATs |= r.DataRATs
			s.VoiceRATs |= r.VoiceRATs
			apns = appendDistinct(apns, apnLo, r.APNs)
			vis = appendDistinct(vis, visLo, r.Visited)
			if r.HasLocation {
				gyrSum += r.GyrationKm
				gyrN++
			}
		}
		s.APNs = window(apns, apnLo)
		s.Visited = window(vis, visLo)
		if gyrN > 0 {
			s.MeanGyrationKm = gyrSum / float64(gyrN)
			s.HasLocation = true
		}
		if db != nil {
			s.Info, s.InfoOK = db.Lookup(s.TAC)
		}
		out = append(out, s)
	}
	return out
}

// appendDistinct appends each element of add that s[lo:] does not yet
// hold, in order.
func appendDistinct[T comparable](s []T, lo int, add []T) []T {
	for _, x := range add {
		if !slices.Contains(s[lo:], x) {
			s = append(s, x)
		}
	}
	return s
}

// window returns arena[lo:] capacity-limited, or nil when it is empty.
func window[T any](arena []T, lo int) []T {
	if len(arena) == lo {
		return nil
	}
	return arena[lo:len(arena):len(arena)]
}
