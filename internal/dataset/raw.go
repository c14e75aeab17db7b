package dataset

import (
	"time"

	"whereroam/internal/catalog"
	"whereroam/internal/cdrs"
	"whereroam/internal/devices"
	"whereroam/internal/geo"
	"whereroam/internal/mccmnc"
	"whereroam/internal/pipeline"
	"whereroam/internal/probe"
	"whereroam/internal/radio"
	"whereroam/internal/rng"
)

// localDevice is one device a visited operator observes, with the
// substream its emission draws from, the mobility model it moves by
// while in the operator's country, and — for federation fleet devices
// — the shared presence schedule that gates its days at this site.
type localDevice struct {
	dev  devices.Device
	emit rng.Source
	// sched, when non-nil, is the fleet presence schedule: the device
	// emits only on the days it places at site.
	sched []int8
	site  int
}

// present reports whether the device is at this site on day.
func (l *localDevice) present(day int) bool {
	return l.sched == nil || int(l.sched[day]) == l.site
}

// capture is one visited operator's observation window: the §4.1
// measurement path every per-event generator drives its population
// through.
type capture struct {
	host    mccmnc.PLMN
	start   time.Time
	days    int
	workers int
}

// build walks locals through the per-event measurement path — radio
// events and CDRs/xDRs into a catalog builder — and aggregates the
// devices-catalog. It is the package's only per-event walk; its
// callers differ in population and in tee, which (when non-nil) also
// receives every CDR/xDR ahead of the builder — an archive writer's
// sink, called concurrently from the shards.
//
// The canonical emission shards stay the unit of scheduling, but the
// builders live once per worker: each shard borrows one for its run
// and hands it back. Emission shards are device-disjoint and every
// device's events are offered in per-device time order, so a builder
// ingests whole devices whichever shards it served — no channel hop,
// no event slice — and catalog.ShardedBuilder.Build's (device, day)
// sort makes the catalog bit-identical at any worker count.
func (c capture) build(locals []localDevice, tee func(cdrs.Record)) *catalog.Catalog {
	hostCountry, _ := mccmnc.CountryByMCC(c.host.MCC)
	grid := radio.NewGrid(hostCountry, 60, 60, radio.DefaultSpacingDeg)

	es := make([]*emitter, pipeline.Workers(c.workers))
	sb := catalog.NewShardedBuilder(c.host, c.start, c.days, grid, len(es))
	for i := range es {
		b := sb.Builder(i)
		es[i] = newEmitter(b.AddRadioDay, b.AddRecord, tee)
	}
	c.emit(locals, grid, es)
	return sb.Build(len(es))
}

// archive walks locals through the CDR/xDR plane alone into sink:
// the same per-device emission as build, with a nil radio sink, so
// every radio draw is kept but no sector is looked up and no builder
// or grid exists. Each device's records reach sink in its build-time
// order.
func (c capture) archive(locals []localDevice, sink func(cdrs.Record)) {
	es := make([]*emitter, pipeline.Workers(c.workers))
	for i := range es {
		es[i] = newEmitter(nil, sink, nil)
	}
	c.emit(locals, nil, es)
}

// emitter is one worker's share of a capture: the sinks its shards
// emit into and the per-day scratch they emit with, which grows to a
// busy device-day once per worker.
type emitter struct {
	radio func([]radio.Event)
	cdr   func(cdrs.Record)
	bufs  emitBufs
}

// newEmitter returns an emitter over the two sinks, with tee (when
// non-nil) receiving every record ahead of cdrSink.
func newEmitter(radioSink func([]radio.Event), cdrSink func(cdrs.Record), tee func(cdrs.Record)) *emitter {
	if tee != nil {
		cdrSink = probe.Fanout(tee, cdrSink)
	}
	return &emitter{radio: radioSink, cdr: cdrSink}
}

// emit walks locals over the canonical shards on len(es) workers. Each
// shard borrows one emitter for its run and hands it back, so every
// emitter serves one shard at a time and the shard queue still
// balances the load.
func (c capture) emit(locals []localDevice, grid *radio.Grid, es []*emitter) {
	free := make(chan *emitter, len(es))
	for _, e := range es {
		free <- e
	}
	pipeline.Run(len(locals), len(es), func(sh pipeline.Shard) {
		e := <-free
		defer func() { free <- e }()
		for i := sh.Lo; i < sh.Hi; i++ {
			emitDeviceDaysSched(&locals[i], c.host, c.start, c.days, grid, e.radio, e.cdr, &e.bufs)
		}
	})
}

// smipPopulation drafts the per-event SMIP generators' meter cohorts
// in one serial pass (see smipMeters).
func smipPopulation(cfg SMIPConfig) (*SMIPDataset, []localDevice) {
	m := newSMIPMeters(cfg, "smipraw", 40)
	n := cfg.NativeMeters + cfg.RoamingMeters
	locals := make([]localDevice, n)
	devs := make([]devices.Device, n)
	migrated := make([]bool, n)
	for i := range locals {
		locals[i].dev, locals[i].emit, migrated[i] = m.draw(i)
		devs[i] = locals[i].dev
	}
	return m.newDataset(devs, migrated), locals
}

// smipCapture is the SMIP host's observation window.
func smipCapture(cfg SMIPConfig) capture {
	return capture{host: cfg.Host, start: cfg.Start, days: cfg.Days, workers: cfg.Workers}
}

// GenerateSMIPStreaming draws the SMIP meter cohorts and walks them
// through the §4.1 measurement path end to end: it synthesizes
// individual radio events and CDRs/xDRs per device and runs them
// straight into the per-worker catalog builders — dwell-based mobility
// metrics included. No event slice
// is ever held, so peak allocation stays flat whatever the capture's
// size; the catalog is bit-identical at any worker count. It is an
// order of magnitude more expensive per device than GenerateSMIP and
// exists to exercise the real pipeline.
//
// With cfg.ArchiveCDRs set, every CDR/xDR additionally fans out to
// the archive sink before it reaches the builder — persist-and-ingest
// in one pass, the feed never materialized.
func GenerateSMIPStreaming(cfg SMIPConfig) *SMIPDataset {
	ds, locals := smipPopulation(cfg)
	ds.Catalog = smipCapture(cfg).build(locals, cfg.ArchiveCDRs)
	return ds
}

// emitBufs carries the per-day scratch slices the emission fills and
// drains for every emitted day: the backing arrays are reused across
// devices instead of reallocated per device. Sinks and builders copy
// records by value, so reuse is safe. The zero value is ready to use.
type emitBufs struct {
	evs   []radio.Event
	recs  []cdrs.Record
	order timeSorter
}

func radioEventTime(ev *radio.Event) time.Time { return ev.Time }

func cdrTime(rec *cdrs.Record) time.Time { return rec.Time }

// emitDeviceDaysSched synthesizes per-event streams for one device,
// drawing from its emit substream, observed from host over the
// [start, start+days) window. A day's events are generated first and
// handed to the sinks time-sorted (stable, so generation order breaks
// timestamp ties): each device's stream is
// then time-ordered end to end — the per-device order contract the
// catalogs' bit-identity rests on. radioSink receives each emitted
// day's radio events at once, as one slice valid only during the call
// (catalog.Builder.AddRadioDay's input); cdrSink receives the day's
// records one at a time.
//
// Only the days the device is present (localDevice.present) emit
// anything — and absent days consume no randomness at all, so a
// device's draws at one federation site never depend on how many days
// it spent at the others. The gate is consulted before the
// daily-activity draw: being scheduled elsewhere is not "inactive
// here", it is "not here".
//
// A nil radioSink (with a nil grid) walks the CDR/xDR plane alone: the
// radio loop still makes every draw, so the records are the same, but
// builds, sorts and hands on no radio event.
func emitDeviceDaysSched(l *localDevice, host mccmnc.PLMN, start time.Time, days int, grid *radio.Grid,
	radioSink func([]radio.Event), cdrSink func(cdrs.Record), bufs *emitBufs) {

	src, dev := &l.emit, &l.dev
	p := dev.Profile
	daySeconds := int64(24 * 3600)
	dayEvs := bufs.evs
	dayRecs := bufs.recs
	defer func() {
		bufs.evs = dayEvs
		bufs.recs = dayRecs
	}()
	// sectorAt remembers its last answer: NearestWithRAT is a pure
	// function of the position and the RAT, and a stationary device
	// (every smart meter) asks about one position all window long.
	var memoPos geo.Point
	var memoRAT radio.RAT
	var memoSector radio.SectorID
	memoOK := false
	sectorAt := func(t time.Time, rat radio.RAT) radio.SectorID {
		pos := dev.Mobility.Position(t)
		if memoOK && pos == memoPos && rat == memoRAT {
			return memoSector
		}
		var id radio.SectorID
		if s, ok := grid.NearestWithRAT(pos, rat); ok {
			id = s.ID
		} else {
			id = grid.Nearest(pos).ID
		}
		memoPos, memoRAT, memoSector, memoOK = pos, rat, id, true
		return id
	}
	for day := p.PresenceStart; day < p.PresenceStart+p.PresenceDays && day < days; day++ {
		if !l.present(day) {
			continue
		}
		if !src.Bool(p.DailyActiveProb) {
			continue
		}
		dayEvs, dayRecs = dayEvs[:0], dayRecs[:0]
		dayStart := start.Add(time.Duration(day) * 24 * time.Hour)
		at := func() time.Time {
			return dayStart.Add(time.Duration(src.Int63n(daySeconds)) * time.Second)
		}

		// Radio events.
		events := int(src.LogNormal(p.SignalingMu, p.SignalingSigma))
		if events < 1 {
			events = 1
		}
		rat := p.DataRAT
		if rat == radio.RATUnknown {
			rat = p.VoiceRAT
		}
		iface, _ := radio.InterfaceFor(rat, radio.DomainPS)
		for e := 0; e < events; e++ {
			t := at()
			evRAT := rat
			evIface := iface
			if p.DataRAT2 != radio.RATUnknown && src.Bool(0.4) {
				evRAT = p.DataRAT2
				evIface, _ = radio.InterfaceFor(evRAT, radio.DomainPS)
			}
			res := radio.ResultOK
			if p.FailProb > 0 && src.Bool(p.FailProb) {
				res = radio.ResultFail
			}
			if radioSink == nil {
				continue
			}
			dayEvs = append(dayEvs, radio.Event{
				Device:    dev.ID,
				Time:      t,
				SIM:       dev.Home,
				TAC:       dev.IMEI.TAC,
				Sector:    sectorAt(t, evRAT),
				Interface: evIface,
				Result:    res,
			})
		}

		// Data sessions as xDRs.
		if p.UsesData {
			sessions := src.Poisson(p.DataSessionsPerDay)
			for sNum := 0; sNum < sessions; sNum++ {
				dayRecs = append(dayRecs, cdrs.Record{
					Device:   dev.ID,
					Time:     at(),
					SIM:      dev.Home,
					Visited:  host,
					Kind:     cdrs.KindData,
					RAT:      p.DataRAT,
					Duration: time.Duration(30+src.Intn(300)) * time.Second,
					Bytes:    uint64(src.LogNormal(p.SessionBytesMu, p.SessionBytesSigma)),
					APN:      p.APN,
				})
			}
		}
		// Voice as CDRs.
		if p.UsesVoice {
			calls := src.Poisson(p.CallsPerDay)
			for cNum := 0; cNum < calls; cNum++ {
				dayRecs = append(dayRecs, cdrs.Record{
					Device:   dev.ID,
					Time:     at(),
					SIM:      dev.Home,
					Visited:  host,
					Kind:     cdrs.KindVoice,
					RAT:      p.VoiceRAT,
					Duration: time.Duration(src.Exp(p.CallDurMeanS)) * time.Second,
				})
			}
		}

		if len(dayEvs) > 0 {
			sortByTime(&bufs.order, dayEvs, radioEventTime)
			radioSink(dayEvs)
		}
		sortByTime(&bufs.order, dayRecs, cdrTime)
		for i := range dayRecs {
			cdrSink(dayRecs[i])
		}
	}
}
