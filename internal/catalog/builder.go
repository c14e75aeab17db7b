package catalog

import (
	"sort"
	"time"

	"whereroam/internal/cdrs"
	"whereroam/internal/geo"
	"whereroam/internal/identity"
	"whereroam/internal/mccmnc"
	"whereroam/internal/pipeline"
	"whereroam/internal/radio"
)

// Builder ingests raw measurement streams (radio events, CDRs/xDRs)
// and aggregates them into the daily devices-catalog. Sector dwell
// times — the weights for centroid and gyration — are estimated from
// inter-event gaps, capped so an idle night does not attribute hours
// to the last sector of the evening.
type Builder struct {
	host  mccmnc.PLMN
	start time.Time
	days  int
	grid  *radio.Grid

	recs map[dayKey]*DailyRecord
	// last event per device for dwell attribution.
	last map[identity.DeviceID]lastSeen
	// visits per device-day for the mobility metrics.
	visits map[dayKey][]geo.Visit
	// callDur accumulates voice duration per device-day as integer
	// nanoseconds; finalize converts it to CallSeconds once. Integer
	// accumulation is associative, so however the records were grouped
	// across builders (shards, merged feeds, archive segments) the
	// final float is bit-identical to a serial single-builder run —
	// float summation would depend on the grouping.
	callDur map[dayKey]time.Duration
}

type dayKey struct {
	dev identity.DeviceID
	day int
}

type lastSeen struct {
	t      time.Time
	sector radio.SectorID
}

// maxDwell caps the inter-event gap attributed as dwell time on the
// previous sector.
const maxDwell = 2 * time.Hour

// NewBuilder returns a Builder for a window of days starting at
// start, observing from host. grid resolves sector positions and may
// be nil when mobility metrics are not needed.
func NewBuilder(host mccmnc.PLMN, start time.Time, days int, grid *radio.Grid) *Builder {
	return &Builder{
		host:    host,
		start:   start,
		days:    days,
		grid:    grid,
		recs:    map[dayKey]*DailyRecord{},
		last:    map[identity.DeviceID]lastSeen{},
		visits:  map[dayKey][]geo.Visit{},
		callDur: map[dayKey]time.Duration{},
	}
}

// day returns the window day index of t, or -1 when outside.
func (b *Builder) day(t time.Time) int {
	d := int(t.Sub(b.start) / (24 * time.Hour))
	if d < 0 || d >= b.days {
		return -1
	}
	return d
}

func (b *Builder) record(dev identity.DeviceID, day int, sim mccmnc.PLMN, tac identity.TAC) *DailyRecord {
	k := dayKey{dev, day}
	r := b.recs[k]
	if r == nil {
		r = &DailyRecord{Device: dev, Day: day, SIM: sim, TAC: tac}
		b.recs[k] = r
	}
	if r.TAC == 0 && tac != 0 {
		r.TAC = tac
	}
	return r
}

// AddRadioEvent ingests one radio-interface event.
func (b *Builder) AddRadioEvent(ev radio.Event) {
	day := b.day(ev.Time)
	if day < 0 {
		return
	}
	r := b.record(ev.Device, day, ev.SIM, ev.TAC)
	r.Events++
	if ev.Result != radio.ResultOK {
		r.FailedEvents++
	} else {
		r.RadioFlags = r.RadioFlags.With(ev.RAT())
	}
	r.AddVisited(b.host)

	if b.grid == nil {
		return
	}
	// Attribute the gap since the previous event as dwell on the
	// previous sector.
	if prev, ok := b.last[ev.Device]; ok {
		gap := ev.Time.Sub(prev.t)
		if gap > 0 {
			if gap > maxDwell {
				gap = maxDwell
			}
			if s, ok := b.grid.Sector(prev.sector); ok {
				pd := b.day(prev.t)
				if pd >= 0 {
					k := dayKey{ev.Device, pd}
					b.visits[k] = append(b.visits[k], geo.Visit{At: s.At, Weight: gap.Seconds()})
				}
			}
		}
	}
	b.last[ev.Device] = lastSeen{t: ev.Time, sector: ev.Sector}
}

// AddRecord ingests one CDR/xDR.
func (b *Builder) AddRecord(rec cdrs.Record) {
	day := b.day(rec.Time)
	if day < 0 {
		return
	}
	r := b.record(rec.Device, day, rec.SIM, 0)
	r.AddVisited(rec.Visited)
	switch rec.Kind {
	case cdrs.KindVoice:
		r.Calls++
		b.callDur[dayKey{rec.Device, day}] += rec.Duration
		r.VoiceRATs = r.VoiceRATs.With(rec.RAT)
	case cdrs.KindData:
		r.Bytes += rec.Bytes
		r.DataRATs = r.DataRATs.With(rec.RAT)
		r.AddAPN(rec.APN)
	}
	r.RadioFlags = r.RadioFlags.With(rec.RAT)
}

// Build finalizes the catalog: it computes the mobility metrics and
// returns records sorted by (device, day).
func (b *Builder) Build() *Catalog {
	out := &Catalog{Host: b.host, Days: b.days, Records: b.finalize()}
	sortRecords(out.Records)
	return out
}

// finalize flushes trailing dwell, computes each record's mobility
// metrics and returns the records unsorted. It is the shard-local
// half of a build; Build and ShardedBuilder.Build add the global
// sort.
func (b *Builder) finalize() []DailyRecord {
	// Flush trailing dwell: the final event of each device gets a
	// nominal one-minute dwell so single-event days still have a
	// location.
	if b.grid != nil {
		//roamvet:maporder-ok one write per ranged device: visits[{dev,day}] is appended by exactly one iteration, so no visit order can interleave
		for dev, prev := range b.last {
			if s, ok := b.grid.Sector(prev.sector); ok {
				if pd := b.day(prev.t); pd >= 0 {
					k := dayKey{dev, pd}
					b.visits[k] = append(b.visits[k], geo.Visit{At: s.At, Weight: 60})
				}
			}
		}
	}
	recs := make([]DailyRecord, 0, len(b.recs))
	//roamvet:maporder-ok finalize returns an unordered batch by documented contract; Build and ShardedBuilder.Build apply sortRecords' (device, day) total order before anything order-sensitive sees it
	for k, r := range b.recs {
		if d := b.callDur[k]; d != 0 {
			r.CallSeconds = d.Seconds()
		}
		if vs := b.visits[k]; len(vs) > 0 {
			if c, ok := geo.Centroid(vs); ok {
				r.Centroid = c
				r.GyrationKm = geo.Gyration(vs)
				r.HasLocation = true
			}
		}
		recs = append(recs, *r)
	}
	return recs
}

// sortRecords orders records by (device, day) — a total order, since
// the pair is unique per record, so the result is deterministic
// whatever permutation the shards delivered.
func sortRecords(recs []DailyRecord) {
	sort.Slice(recs, func(i, j int) bool {
		a, c := &recs[i], &recs[j]
		if a.Device != c.Device {
			return a.Device < c.Device
		}
		return a.Day < c.Day
	})
}

// Merge folds another builder's accumulated state into b, combining
// catalogs built from separate capture feeds (e.g. one builder per
// probe site). Per-day records combine field-wise (counts and flags
// add, visited networks and APNs union in b-then-o order, an unknown
// TAC backfills). Dwell state merges by keeping the later last-seen
// event per device; the dwell chain *across* the two builders is not
// reconstructed, so for exact parity with a single builder keep the
// feeds device-disjoint — which is why ShardedBuilder routes events
// by device and merges finalized shard outputs instead.
func (b *Builder) Merge(o *Builder) {
	//roamvet:maporder-ok per-ranged-key fold into b.recs[k]: each (device, day) key is touched by exactly one iteration, and the b-then-o union order within a key is fixed by the merge direction
	for k, ro := range o.recs {
		r := b.recs[k]
		if r == nil {
			b.recs[k] = ro
			continue
		}
		if r.TAC == 0 && ro.TAC != 0 {
			r.TAC = ro.TAC
		}
		r.Events += ro.Events
		r.FailedEvents += ro.FailedEvents
		r.Calls += ro.Calls
		r.Bytes += ro.Bytes
		r.RadioFlags |= ro.RadioFlags
		r.DataRATs |= ro.DataRATs
		r.VoiceRATs |= ro.VoiceRATs
		for _, v := range ro.Visited {
			r.AddVisited(v)
		}
		for _, a := range ro.APNs {
			r.AddAPN(a)
		}
	}
	for k, vs := range o.visits {
		b.visits[k] = append(b.visits[k], vs...)
	}
	for k, d := range o.callDur {
		b.callDur[k] += d
	}
	//roamvet:maporder-ok keyed max-fold: each device keeps its later last-seen event, an extremum that no visit order can change
	for dev, seen := range o.last {
		if prev, ok := b.last[dev]; !ok || seen.t.After(prev.t) {
			b.last[dev] = seen
		}
	}
}

// ShardedBuilder partitions catalog construction by device over
// several shard-local Builders, so ingestion can run on one goroutine
// per shard and the build still attributes dwell correctly — provided
// every event of a device lands in the same shard. It is used two
// ways. A consumer of an arbitrary interleaved feed routes by device
// hash (ShardFor, or AddRadioEvent/AddRecord), as internal/ingest's
// router does. A producer whose own partitions are already
// device-disjoint hands partition i the Builder(i) it then owns
// outright, as the dataset capture's emission shards do — no routing
// at all. Build is the same for both. The zero worker-count
// convention of internal/pipeline applies throughout.
type ShardedBuilder struct {
	shards []*Builder
}

// NewShardedBuilder returns a builder sharded count ways; count
// values below one collapse to a single shard.
func NewShardedBuilder(host mccmnc.PLMN, start time.Time, days int, grid *radio.Grid, count int) *ShardedBuilder {
	if count < 1 {
		count = 1
	}
	sb := &ShardedBuilder{shards: make([]*Builder, count)}
	for i := range sb.shards {
		sb.shards[i] = NewBuilder(host, start, days, grid)
	}
	return sb
}

// Shards returns the shard count.
func (sb *ShardedBuilder) Shards() int { return len(sb.shards) }

// ShardFor returns the shard index owning the device.
func (sb *ShardedBuilder) ShardFor(dev identity.DeviceID) int {
	return int(uint64(dev) % uint64(len(sb.shards)))
}

// Builder returns the shard-local builder; feed each from at most
// one goroutine at a time.
func (sb *ShardedBuilder) Builder(i int) *Builder { return sb.shards[i] }

// Build finalizes every shard concurrently on workers goroutines and
// merges the shard outputs into one sorted catalog. Shards own
// device-disjoint record sets and (device, day) is a total order, so
// the merged catalog is identical to a serial single-builder run for
// any shard or worker count.
func (sb *ShardedBuilder) Build(workers int) *Catalog {
	parts := pipeline.Map(len(sb.shards), workers, func(sh pipeline.Shard) []DailyRecord {
		var recs []DailyRecord
		for i := sh.Lo; i < sh.Hi; i++ {
			recs = append(recs, sb.shards[i].finalize()...)
		}
		return recs
	})
	first := sb.shards[0]
	out := &Catalog{Host: first.host, Days: first.days}
	for _, recs := range parts {
		out.Records = append(out.Records, recs...)
	}
	sortRecords(out.Records)
	return out
}
