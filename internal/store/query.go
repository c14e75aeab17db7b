package store

import (
	"whereroam/internal/cdrs"
	"whereroam/internal/identity"
	"whereroam/internal/mccmnc"
)

// Query is the store's read predicate and segment planner: the zero
// Query selects everything, and the chainable constructors narrow it
// by event-day range, device-ID range, exact device or visited
// network. A Query prunes at two levels — whole segments are skipped
// without reading when their footer index proves no record can match
// (day range, device-hash range, visited set, and for exact-device
// queries the per-segment device-hash Bloom filter), and surviving
// segments are filtered record by record on the wire frame, before
// anything is decoded. [Reader.Plan] exposes the
// segment-selection decision without reading anything.
type Query struct {
	hasDays    bool
	dayLo      int
	dayHi      int
	hasDevs    bool
	devLo      uint64
	devHi      uint64
	exactDev   bool
	hasVisited bool
	visited    mccmnc.PLMN
	noBloom    bool
}

// Days narrows the query to records whose event day (relative to the
// store's Start) lies in [lo, hi].
func (q Query) Days(lo, hi int) Query {
	q.hasDays, q.dayLo, q.dayHi = true, lo, hi
	return q
}

// Devices narrows the query to records whose device-ID hash lies in
// [lo, hi]. A range query prunes segments by the footer's min/max
// device-hash bounds only; use [Query.Device] for a single device so
// the Bloom filter can prune too.
func (q Query) Devices(lo, hi identity.DeviceID) Query {
	q.hasDevs, q.devLo, q.devHi = true, uint64(lo), uint64(hi)
	q.exactDev = lo == hi
	return q
}

// Device narrows the query to exactly one device. Equivalent to
// Devices(dev, dev); planning additionally probes each segment's
// device-hash Bloom filter, skipping segments that provably do not
// contain the device even when its hash lies inside the segment's
// min/max range.
func (q Query) Device(dev identity.DeviceID) Query {
	return q.Devices(dev, dev)
}

// VisitedHost narrows the query to records generated on the given
// visited network.
func (q Query) VisitedHost(p mccmnc.PLMN) Query {
	q.hasVisited, q.visited = true, p
	return q
}

// WithoutBloom disables Bloom-filter segment pruning for this query,
// leaving only the range indexes. Pruning is false-positive-only, so
// results never change — this exists for benchmarking the filter's
// effect and as an escape hatch.
func (q Query) WithoutBloom() Query {
	q.noBloom = true
	return q
}

// Segment verdicts from the planner.
type segVerdict int

const (
	// segKeep selects the segment for reading.
	segKeep segVerdict = iota
	// segPruneRange skips a segment on the footer's range indexes:
	// empty, day range, device-hash range, or visited set.
	segPruneRange
	// segPruneBloom skips a segment because the device-hash Bloom
	// filter proves the queried device absent.
	segPruneBloom
)

// judgeSegment decides whether the segment's footer index admits any
// matching record, and — when it does not — which index family proved
// it.
func (q Query) judgeSegment(si *SegmentInfo) segVerdict {
	if si.Records == 0 {
		return segPruneRange
	}
	if q.hasDays && (si.MinDay > q.dayHi || si.MaxDay < q.dayLo) {
		return segPruneRange
	}
	if q.hasDevs && (si.MinDevice > q.devHi || si.MaxDevice < q.devLo) {
		return segPruneRange
	}
	if q.hasVisited && !si.VisitedOverflow {
		found := false
		want := q.visited.Concat()
		for _, v := range si.Visited {
			if v == want {
				found = true
				break
			}
		}
		if !found {
			return segPruneRange
		}
	}
	if q.exactDev && !q.noBloom && !bloomMaybe(si.Bloom, si.BloomHashes, q.devLo) {
		return segPruneBloom
	}
	return segKeep
}

// keep returns the query's record-level predicate on wire frames — a
// record's event day (from clock), device hash and visited network,
// read in place — or nil when the query keeps every record.
func (q Query) keep(clock dayClock) func(frame []byte) bool {
	if !q.hasDays && !q.hasDevs && !q.hasVisited {
		return nil
	}
	return func(frame []byte) bool {
		if q.hasDevs {
			if dev := cdrs.FrameDevice(frame); dev < q.devLo || dev > q.devHi {
				return false
			}
		}
		if q.hasVisited && cdrs.FrameVisited(frame) != q.visited {
			return false
		}
		if q.hasDays {
			if day := clock.day(cdrs.FrameTime(frame)); day < q.dayLo || day > q.dayHi {
				return false
			}
		}
		return true
	}
}

// QueryPlan is the segment-selection decision for one query against
// one store snapshot: which segments a replay would read and why the
// rest were skipped, computed from the manifest alone.
type QueryPlan struct {
	// SegmentsTotal is the number of sealed segments in the store.
	SegmentsTotal int
	// Selected lists the segment file names a replay would read, in
	// store order.
	Selected []string
	// PrunedRange counts segments skipped on the range indexes
	// (empty segment, day range, device-hash range, visited set).
	PrunedRange int
	// PrunedBloom counts segments skipped by the device-hash Bloom
	// filter alone — their range indexes admitted the device.
	PrunedBloom int
}

// Plan runs segment selection for q without reading any segment,
// returning which segments a replay would read and why the rest
// were pruned.
func (r *Reader) Plan(q Query) *QueryPlan {
	plan := &QueryPlan{SegmentsTotal: len(r.man.Segments)}
	for i := range r.man.Segments {
		si := &r.man.Segments[i]
		switch q.judgeSegment(si) {
		case segKeep:
			plan.Selected = append(plan.Selected, si.Name)
		case segPruneRange:
			plan.PrunedRange++
		case segPruneBloom:
			plan.PrunedBloom++
		}
	}
	return plan
}
