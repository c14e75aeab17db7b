package catalog

import (
	"cmp"
	"slices"
	"time"

	"whereroam/internal/apn"
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
//
// State is indexed by device: one map probe finds a device's entry
// (none for a repeat of the previous device), and the entry's day
// slots name its rows. Rows live in fixed-size chunks that never
// move, so no device-day is a heap object of its own.
type Builder struct {
	host  mccmnc.PLMN
	start time.Time
	days  int
	grid  *radio.Grid

	index map[identity.DeviceID]int32
	devs  []device
	// slots holds days entries per device — device i owns
	// slots[i*days : (i+1)*days] — each a row number plus one, or zero
	// for a day without activity.
	slots []int32
	// memoDev/memoIdx remember the last device looked up (memoIdx < 0:
	// none), so a run of records of one device skips the map.
	memoDev identity.DeviceID
	memoIdx int32

	chunks [][]row
	nrows  int32
	// plmns and apns hand each row its first visited network and APN
	// without an allocation of its own; finalize packs the lists into
	// exactly sized arrays, so no slab chunk outlives the build.
	// visits holds the rows' visit lists AddRadioDay sizes.
	plmns  Slab[mccmnc.PLMN]
	apns   Slab[apn.APN]
	visits Slab[geo.Visit]
}

// device is one device's entry: its dwell state.
type device struct {
	id identity.DeviceID
	// last is the device's latest radio event, for dwell attribution;
	// seen reports whether there was one.
	last lastSeen
	seen bool
}

type lastSeen struct {
	t      time.Time
	sector radio.SectorID
}

// row is one device-day: the catalog record plus the state finalize
// turns into its derived fields.
type row struct {
	DailyRecord
	// callDur accumulates voice duration as integer nanoseconds;
	// finalize converts it to CallSeconds once. Integer accumulation is
	// associative, so however the records were grouped across builders
	// (shards, merged feeds, replay workers) the final float is
	// bit-identical to a serial single-builder run — float summation
	// would depend on the grouping.
	callDur time.Duration
	// visits are the day's dwell-weighted sector positions, for the
	// mobility metrics.
	visits []geo.Visit
}

// Row storage: a first chunk small enough that a one-device fill stays
// cheap, then fixed-size chunks, small enough that the builders of a
// replay or a router, one per worker, waste little in their last
// chunk.
const (
	firstChunkRows = 16
	chunkRows      = 64
)

// Slab hands out short slices carved from chunks, so a list of known
// small size — a record's visited networks or APNs, a row's day of
// visits — is not a heap object of its own. Each slice is
// capacity-limited, so growing it past its size makes append copy it
// out to the heap and no two slices ever share an element. Chunks
// double from slabMin to slabMax elements, so a slab that serves a
// handful of slices stays small and one that serves a capture's worth
// allocates rarely. A chunk lives as long as any slice carved from
// it. The zero value is ready to use; not safe for concurrent use.
type Slab[T any] struct {
	free  []T
	chunk int // length of the last chunk
}

const (
	slabMin = 32
	slabMax = 1024
)

// Carve returns an empty slice of capacity n. An n that does not fit
// the current chunk's rest and is above slabMax/8 gets an array of its
// own, so opening a chunk strands fewer than slabMax/8 elements of the
// last one.
func (s *Slab[T]) Carve(n int) []T {
	if len(s.free) < n {
		if n > slabMax/8 {
			return make([]T, 0, n)
		}
		s.chunk = min(max(2*s.chunk, slabMin, n), slabMax)
		s.free = make([]T, s.chunk)
	}
	out := s.free[:0:n]
	s.free = s.free[n:]
	return out
}

// One returns a length-one, capacity-one slice holding v.
func (s *Slab[T]) One(v T) []T { return append(s.Carve(1), v) }

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
		index:   map[identity.DeviceID]int32{},
		memoIdx: -1,
	}
}

// day returns the window day index of t — whole days since the window
// start, rounded down — or -1 when t lies outside the window. Any
// instant before the start is outside, also one less than a day
// before it.
func (b *Builder) day(t time.Time) int {
	since := t.Sub(b.start)
	if since < 0 {
		return -1
	}
	if d := int(since / (24 * time.Hour)); d < b.days {
		return d
	}
	return -1
}

// device returns the entry index of dev, adding an entry on first
// sight.
func (b *Builder) device(dev identity.DeviceID) int32 {
	if b.memoIdx >= 0 && b.memoDev == dev {
		return b.memoIdx
	}
	i, ok := b.index[dev]
	if !ok {
		i = int32(len(b.devs))
		b.index[dev] = i
		b.devs = append(b.devs, device{id: dev})
		b.slots = append(b.slots, make([]int32, b.days)...)
	}
	b.memoDev, b.memoIdx = dev, i
	return i
}

// slot returns device i's slot for day.
func (b *Builder) slot(i int32, day int) *int32 {
	return &b.slots[int(i)*b.days+day]
}

// row returns row number n.
func (b *Builder) row(n int32) *row {
	if n < firstChunkRows {
		return &b.chunks[0][n]
	}
	n -= firstChunkRows
	return &b.chunks[1+n/chunkRows][n%chunkRows]
}

// newRow takes the next free row, opening a chunk when the last one is
// full, and stores its number in slot.
func (b *Builder) newRow(slot *int32) *row {
	n := b.nrows
	if n == 0 {
		b.chunks = append(b.chunks, make([]row, firstChunkRows))
	} else if n >= firstChunkRows && (n-firstChunkRows)%chunkRows == 0 {
		b.chunks = append(b.chunks, make([]row, chunkRows))
	}
	b.nrows++
	*slot = n + 1
	return b.row(n)
}

// record returns device i's row for day, creating it on first sight.
func (b *Builder) record(i int32, day int, sim mccmnc.PLMN, tac identity.TAC) *row {
	s := b.slot(i, day)
	if *s == 0 {
		r := b.newRow(s)
		r.DailyRecord = DailyRecord{Device: b.devs[i].id, Day: day, SIM: sim, TAC: tac}
		return r
	}
	r := b.row(*s - 1)
	if r.TAC == 0 && tac != 0 {
		r.TAC = tac
	}
	return r
}

// addVisited is DailyRecord.AddVisited with the row's first network
// taken from the slab.
func (b *Builder) addVisited(r *row, p mccmnc.PLMN) {
	if r.Visited == nil {
		r.Visited = b.plmns.One(p)
		return
	}
	r.AddVisited(p)
}

// addAPN is DailyRecord.AddAPN with the row's first APN taken from the
// slab.
func (b *Builder) addAPN(r *row, a apn.APN) {
	if r.APNs == nil && !a.IsZero() {
		r.APNs = b.apns.One(a)
		return
	}
	r.AddAPN(a)
}

// AddRadioEvent ingests one radio-interface event.
func (b *Builder) AddRadioEvent(ev radio.Event) {
	day := b.day(ev.Time)
	if day < 0 {
		return
	}
	i := b.device(ev.Device)
	r := b.record(i, day, ev.SIM, ev.TAC)
	r.Events++
	if ev.Result != radio.ResultOK {
		r.FailedEvents++
	} else {
		r.RadioFlags = r.RadioFlags.With(ev.RAT())
	}
	b.addVisited(r, b.host)

	if b.grid == nil {
		return
	}
	// Attribute the gap since the previous event as dwell on the
	// previous sector.
	d := &b.devs[i]
	if d.seen {
		gap := ev.Time.Sub(d.last.t)
		if gap > 0 {
			if gap > maxDwell {
				gap = maxDwell
			}
			b.addVisit(i, d.last, gap.Seconds())
		}
	}
	d.last, d.seen = lastSeen{t: ev.Time, sector: ev.Sector}, true
}

// AddRadioDay ingests one device-day of radio events: evs are one
// device's events in time order, all inside one window day — what the
// dataset capture hands over for each day it emits. The catalog it
// leaves is the one calling AddRadioEvent on each event in turn
// leaves, but the device, the day and the row are looked up once and
// the row's visit list is sized once. Input that breaks the
// precondition (mixed devices, an instant out of order, a day
// boundary crossed) is ingested event by event instead, so the result
// never depends on the caller keeping it.
func (b *Builder) AddRadioDay(evs []radio.Event) {
	if len(evs) == 0 {
		return
	}
	first := &evs[0]
	day := b.day(first.Time)
	oneDay := day >= 0 && b.day(evs[len(evs)-1].Time) == day
	for k := 1; oneDay && k < len(evs); k++ {
		oneDay = evs[k].Device == first.Device && !evs[k].Time.Before(evs[k-1].Time)
	}
	if !oneDay {
		for k := range evs {
			b.AddRadioEvent(evs[k])
		}
		return
	}
	i := b.device(first.Device)
	r := b.record(i, day, first.SIM, first.TAC)
	b.addVisited(r, b.host)
	if need := len(r.visits) + len(evs); b.grid != nil && cap(r.visits) < need {
		// Every event but the first attributes its gap to this row; the
		// last event's dwell lands here too, from the device's next event
		// or the trailing flush.
		r.visits = append(b.visits.Carve(need), r.visits...)
	}
	d := &b.devs[i]
	for k := range evs {
		ev := &evs[k]
		if r.TAC == 0 && ev.TAC != 0 {
			r.TAC = ev.TAC
		}
		r.Events++
		if ev.Result != radio.ResultOK {
			r.FailedEvents++
		} else {
			r.RadioFlags = r.RadioFlags.With(ev.RAT())
		}
		if b.grid == nil {
			continue
		}
		if d.seen {
			if gap := ev.Time.Sub(d.last.t); gap > 0 {
				gap = min(gap, maxDwell)
				if k == 0 {
					// The previous event may lie on an earlier day.
					b.addVisit(i, d.last, gap.Seconds())
				} else if s, ok := b.grid.Sector(d.last.sector); ok {
					r.visits = append(r.visits, geo.Visit{At: s.At, Weight: gap.Seconds()})
				}
			}
		}
		d.last, d.seen = lastSeen{t: ev.Time, sector: ev.Sector}, true
	}
}

// addVisit appends a visit of weight seconds at the sector and day of
// at to device i's row.
func (b *Builder) addVisit(i int32, at lastSeen, weight float64) {
	s, ok := b.grid.Sector(at.sector)
	if !ok {
		return
	}
	if pd := b.day(at.t); pd >= 0 {
		if n := *b.slot(i, pd); n != 0 {
			r := b.row(n - 1)
			r.visits = append(r.visits, geo.Visit{At: s.At, Weight: weight})
		}
	}
}

// AddRecord ingests one CDR/xDR.
func (b *Builder) AddRecord(rec cdrs.Record) {
	b.AddDayRecord(b.day(rec.Time), &rec)
}

// AddDayRecord ingests one CDR/xDR whose window day the caller already
// computed (as AddRecord would: whole days since the window start,
// rounded down, so an instant before the start is outside). A day
// outside [0, days) drops the record, as AddRecord does.
func (b *Builder) AddDayRecord(day int, rec *cdrs.Record) {
	if uint(day) >= uint(b.days) {
		return
	}
	r := b.record(b.device(rec.Device), day, rec.SIM, 0)
	b.addVisited(r, rec.Visited)
	switch rec.Kind {
	case cdrs.KindVoice:
		r.Calls++
		r.callDur += rec.Duration
		r.VoiceRATs = r.VoiceRATs.With(rec.RAT)
	case cdrs.KindData:
		r.Bytes += rec.Bytes
		r.DataRATs = r.DataRATs.With(rec.RAT)
		b.addAPN(r, rec.APN)
	}
	r.RadioFlags = r.RadioFlags.With(rec.RAT)
}

// Build finalizes the catalog: it computes the mobility metrics and
// returns records sorted by (device, day).
func (b *Builder) Build() *Catalog {
	return &Catalog{Host: b.host, Days: b.days, Records: b.finalize()}
}

// finalize flushes trailing dwell, computes each record's mobility
// metrics and returns the records in (device, day) order: devices
// sorted by ID, each device's rows in day order.
func (b *Builder) finalize() []DailyRecord {
	// Flush trailing dwell: the final event of each device gets a
	// nominal one-minute dwell so single-event days still have a
	// location.
	if b.grid != nil {
		for i := range b.devs {
			if d := &b.devs[i]; d.seen {
				b.addVisit(int32(i), d.last, 60)
			}
		}
	}
	order := make([]int32, len(b.devs))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(x, y int32) int { return cmp.Compare(b.devs[x].id, b.devs[y].id) })
	// Size one array for all visited lists and one for all APN lists;
	// unused rows of the last chunk are zero and count nothing.
	nv, na := 0, 0
	for _, c := range b.chunks {
		for k := range c {
			nv += len(c[k].Visited)
			na += len(c[k].APNs)
		}
	}
	plmns := make([]mccmnc.PLMN, 0, nv)
	apns := make([]apn.APN, 0, na)
	recs := make([]DailyRecord, 0, b.nrows)
	for _, i := range order {
		for _, n := range b.slots[int(i)*b.days : int(i+1)*b.days] {
			if n == 0 {
				continue
			}
			r := b.row(n - 1)
			if r.callDur != 0 {
				r.CallSeconds = r.callDur.Seconds()
			}
			if len(r.visits) > 0 {
				if c, ok := geo.Centroid(r.visits); ok {
					r.Centroid = c
					r.GyrationKm = geo.Gyration(r.visits)
					r.HasLocation = true
				}
			}
			recs = append(recs, r.DailyRecord)
			out := &recs[len(recs)-1]
			out.Visited, plmns = pack(plmns, r.Visited)
			out.APNs, apns = pack(apns, r.APNs)
		}
	}
	return recs
}

// pack appends s to arena, whose capacity the caller sized for every
// list, and returns s's copy there (capacity-limited, so an append to
// it copies out) with the grown arena. An empty s stays as it is, nil
// included.
func pack[T any](arena, s []T) ([]T, []T) {
	if len(s) == 0 {
		return s, arena
	}
	lo := len(arena)
	arena = append(arena, s...)
	return arena[lo:len(arena):len(arena)], arena
}

// Merge folds another builder over the same window into b, combining
// catalogs built from separate feeds (e.g. one builder per probe site,
// or one per replay worker over contiguous segment ranges). It walks
// o's devices in o's first-seen order: a device-day absent from b moves
// over whole, and one present on both sides combines field-wise
// (counts, bytes and call duration add, RAT flags OR, an unknown TAC
// backfills, visited networks, APNs and visits append in b-then-o
// first-seen order). Each of these composes over a contiguous split of
// one record stream, so folding the builders of consecutive ranges in
// range order equals one builder over the whole stream. Dwell state
// keeps the later last-seen event per device; the dwell chain *across*
// the two builders is not reconstructed, so for exact parity with a
// single builder over radio events keep the feeds device-disjoint —
// which is why ShardedBuilder routes events by device and merges
// finalized shard outputs instead.
//
// Merge consumes o: b may share o's rows' slices afterwards, so o must
// not be used again.
func (b *Builder) Merge(o *Builder) {
	if o.days != b.days || !o.start.Equal(b.start) {
		panic("catalog: Merge of builders over different windows")
	}
	for oi := range o.devs {
		od := &o.devs[oi]
		i := b.device(od.id)
		if d := &b.devs[i]; od.seen && (!d.seen || od.last.t.After(d.last.t)) {
			d.last, d.seen = od.last, true
		}
		for day, n := range o.slots[oi*o.days : (oi+1)*o.days] {
			if n == 0 {
				continue
			}
			ro := o.row(n - 1)
			s := b.slot(i, day)
			if *s == 0 {
				*b.newRow(s) = *ro
				continue
			}
			r := b.row(*s - 1)
			if r.TAC == 0 && ro.TAC != 0 {
				r.TAC = ro.TAC
			}
			r.Events += ro.Events
			r.FailedEvents += ro.FailedEvents
			r.Calls += ro.Calls
			r.callDur += ro.callDur
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
			r.visits = append(r.visits, ro.visits...)
		}
	}
}

// ShardedBuilder partitions catalog construction by device over
// several Builders, so ingestion can run on one goroutine per builder
// and the build still attributes dwell correctly — provided every
// event of a device lands in the same builder. It is used two ways. A
// consumer of an arbitrary interleaved feed routes by device hash
// (ShardFor), as internal/ingest's router does. A producer whose own
// partitions are already device-disjoint lends Builder(i) to one
// partition at a time, as the dataset capture does with one builder
// per worker: each emission shard borrows one for its run, so a
// builder ingests whole devices of whichever shards it served — no
// routing at all. Build is the same for both. The zero worker-count
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
// merges the shard outputs into one catalog sorted by (device, day).
// Shards own device-disjoint record sets and (device, day) is a total
// order, so the merged catalog is identical to a serial single-builder
// run for any shard or worker count.
func (sb *ShardedBuilder) Build(workers int) *Catalog {
	parts := pipeline.Map(len(sb.shards), workers, func(sh pipeline.Shard) []DailyRecord {
		recs := sb.shards[sh.Lo].finalize()
		for i := sh.Lo + 1; i < sh.Hi; i++ {
			recs = append(recs, sb.shards[i].finalize()...)
		}
		return recs
	})
	n := 0
	for _, recs := range parts {
		n += len(recs)
	}
	first := sb.shards[0]
	out := &Catalog{Host: first.host, Days: first.days}
	if n > 0 {
		out.Records = make([]DailyRecord, 0, n)
	}
	for _, recs := range parts {
		out.Records = append(out.Records, recs...)
	}
	slices.SortFunc(out.Records, func(a, c DailyRecord) int {
		if a.Device != c.Device {
			return cmp.Compare(a.Device, c.Device)
		}
		return cmp.Compare(a.Day, c.Day)
	})
	return out
}
