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
	"sort"

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
	// Records holds every device-day aggregate.
	Records []DailyRecord
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
// goroutines (below one = one worker per CPU, one = serial). Record
// chunks are
// aggregated concurrently into partial per-device summaries and
// merged in chunk order; chunk boundaries depend only on the record
// count, so the result — including float accumulation order — is
// identical for every worker count. (The chunked grouping is the
// reproducibility contract; it regroups float additions relative to
// the pre-chunking single pass, so CallSeconds/MeanGyrationKm may
// differ in the last bits from catalogs summarized by older
// versions.)
func (c *Catalog) SummariesWorkers(db *gsma.DB, workers int) []Summary {
	parts := pipeline.Map(len(c.Records), workers, func(sh pipeline.Shard) *summaryPartial {
		return c.summarizeChunk(sh.Lo, sh.Hi)
	})
	if len(parts) == 0 {
		return nil
	}
	acc := parts[0]
	for _, p := range parts[1:] {
		acc.merge(p)
	}

	out := make([]Summary, 0, len(acc.byDev))
	for id, s := range acc.byDev {
		if n := acc.gyrN[id]; n > 0 {
			s.MeanGyrationKm = acc.gyrSum[id] / float64(n)
			s.HasLocation = true
		}
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Device < out[j].Device })
	if db != nil {
		pipeline.Run(len(out), workers, func(sh pipeline.Shard) {
			for i := sh.Lo; i < sh.Hi; i++ {
				out[i].Info, out[i].InfoOK = db.Lookup(out[i].TAC)
			}
		})
	}
	return out
}

// summaryPartial is one chunk's per-device aggregation state.
type summaryPartial struct {
	byDev  map[identity.DeviceID]*Summary
	gyrSum map[identity.DeviceID]float64
	gyrN   map[identity.DeviceID]int
}

// summarizeChunk aggregates the record range [lo, hi).
func (c *Catalog) summarizeChunk(lo, hi int) *summaryPartial {
	p := &summaryPartial{
		byDev:  map[identity.DeviceID]*Summary{},
		gyrSum: map[identity.DeviceID]float64{},
		gyrN:   map[identity.DeviceID]int{},
	}
	for i := lo; i < hi; i++ {
		r := &c.Records[i]
		s := p.byDev[r.Device]
		if s == nil {
			s = &Summary{Device: r.Device, SIM: r.SIM, TAC: r.TAC, FirstDay: r.Day, LastDay: r.Day}
			p.byDev[r.Device] = s
		}
		s.ActiveDays++
		if r.Day < s.FirstDay {
			s.FirstDay = r.Day
		}
		if r.Day > s.LastDay {
			s.LastDay = r.Day
		}
		s.Events += r.Events
		s.FailedEvents += r.FailedEvents
		s.Calls += r.Calls
		s.CallSeconds += r.CallSeconds
		s.Bytes += r.Bytes
		s.RadioFlags |= r.RadioFlags
		s.DataRATs |= r.DataRATs
		s.VoiceRATs |= r.VoiceRATs
		for _, a := range r.APNs {
			s.addAPN(a)
		}
		for _, v := range r.Visited {
			s.addVisited(v)
		}
		if r.HasLocation {
			p.gyrSum[r.Device] += r.GyrationKm
			p.gyrN[r.Device]++
		}
	}
	return p
}

// merge folds a later chunk's partials into p. p's chunk precedes
// o's, so p's first-seen fields (SIM, TAC, APN/Visited order) win —
// the same outcome a single pass over the concatenated chunks gives.
func (p *summaryPartial) merge(o *summaryPartial) {
	//roamvet:maporder-ok per-ranged-key fold into p.byDev[id]: each device is touched by exactly one iteration and first-seen fields follow the fixed p-then-o merge direction
	for id, so := range o.byDev {
		s := p.byDev[id]
		if s == nil {
			p.byDev[id] = so
			continue
		}
		s.ActiveDays += so.ActiveDays
		if so.FirstDay < s.FirstDay {
			s.FirstDay = so.FirstDay
		}
		if so.LastDay > s.LastDay {
			s.LastDay = so.LastDay
		}
		s.Events += so.Events
		s.FailedEvents += so.FailedEvents
		s.Calls += so.Calls
		//roamvet:floatfold-ok Summaries folds chunk partials serially in ascending chunk order, so each device's CallSeconds additions happen in one pinned sequence
		s.CallSeconds += so.CallSeconds
		s.Bytes += so.Bytes
		s.RadioFlags |= so.RadioFlags
		s.DataRATs |= so.DataRATs
		s.VoiceRATs |= so.VoiceRATs
		for _, a := range so.APNs {
			s.addAPN(a)
		}
		for _, v := range so.Visited {
			s.addVisited(v)
		}
	}
	for id, g := range o.gyrSum {
		//roamvet:floatfold-ok per-ranged-key single addition, and chunk partials fold serially in ascending chunk order — the gyration sum sequence per device is pinned
		p.gyrSum[id] += g
	}
	for id, n := range o.gyrN {
		p.gyrN[id] += n
	}
}

func (s *Summary) addAPN(a apn.APN) {
	for _, x := range s.APNs {
		if x == a {
			return
		}
	}
	s.APNs = append(s.APNs, a)
}

func (s *Summary) addVisited(p mccmnc.PLMN) {
	for _, x := range s.Visited {
		if x == p {
			return
		}
	}
	s.Visited = append(s.Visited, p)
}
