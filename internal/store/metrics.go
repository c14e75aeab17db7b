package store

import (
	"strconv"

	"whereroam/internal/obs"
)

// Metrics bundles the store's instrumentation handles: segment
// planner counters (selected vs range-pruned vs Bloom-pruned), read
// and write volume counters, seal/checkpoint latency histograms,
// per-worker-range replay timing, and compaction spans. A nil *Metrics is a
// complete no-op — every hook checks the receiver, and the handles
// themselves are nil-safe obs types — so the store's deterministic
// results and benchmarked hot paths are untouched unless a caller
// explicitly attaches metrics via [Reader.Observe],
// [Writer.Observe] or [CompactOptions.Metrics].
type Metrics struct {
	segSelected    *obs.Counter
	segPrunedRange *obs.Counter
	segPrunedBloom *obs.Counter
	segRead        *obs.Counter
	bytesRead      *obs.Counter
	recordsRead    *obs.Counter
	segSealed      *obs.Counter
	bytesWritten   *obs.Counter
	recordsWritten *obs.Counter
	sealSeconds    *obs.Histogram
	ckptSeconds    *obs.Histogram
	shardSeconds   *obs.Histogram
	tracer         *obs.Tracer
}

// NewMetrics registers the store's series on reg (nil-tolerated) and
// routes compaction spans to tracer (nil-tolerated). With both nil it
// returns nil, the no-op Metrics.
func NewMetrics(reg *obs.Registry, tracer *obs.Tracer) *Metrics {
	if reg == nil && tracer == nil {
		return nil
	}
	return &Metrics{
		segSelected:    reg.Counter("store_segments_selected_total", "segments admitted by the query planner"),
		segPrunedRange: reg.Counter("store_segments_range_pruned_total", "segments skipped unread by day/device/visited range indexes"),
		segPrunedBloom: reg.Counter("store_segments_bloom_pruned_total", "segments skipped unread by the device-hash bloom filter alone"),
		segRead:        reg.Counter("store_segments_read_total", "segments decoded end to end"),
		bytesRead:      reg.Counter("store_bytes_read_total", "segment body bytes decoded"),
		recordsRead:    reg.Counter("store_records_read_total", "records decoded from segment bodies"),
		segSealed:      reg.Counter("store_segments_sealed_total", "segments sealed with bloom filter and footer"),
		bytesWritten:   reg.Counter("store_bytes_written_total", "sealed segment bytes written (body, bloom, footer)"),
		recordsWritten: reg.Counter("store_records_written_total", "records sealed into segments"),
		sealSeconds:    reg.Histogram("store_seal_seconds", "segment seal latency (flush, bloom, footer, fsyncs, log append)", nil),
		ckptSeconds:    reg.Histogram("store_checkpoint_seconds", "manifest checkpoint write latency", nil),
		shardSeconds:   reg.Histogram("store_replay_shard_seconds", "wall time of one replay worker's contiguous segment range (decode and build)", nil),
		tracer:         tracer,
	}
}

// notePlan records one query-planning outcome.
func (m *Metrics) notePlan(selected, prunedRange, prunedBloom int) {
	if m == nil {
		return
	}
	m.segSelected.Add(int64(selected))
	m.segPrunedRange.Add(int64(prunedRange))
	m.segPrunedBloom.Add(int64(prunedBloom))
}

// noteRead records the read volume of a finished replay.
func (m *Metrics) noteRead(st *ReplayStats) {
	if m == nil {
		return
	}
	m.segRead.Add(int64(st.SegmentsRead))
	m.bytesRead.Add(st.BytesRead)
	m.recordsRead.Add(st.RecordsRead)
}

// noteSeal records one sealed segment's volume.
func (m *Metrics) noteSeal(bytes int64, records int) {
	if m == nil {
		return
	}
	m.segSealed.Inc()
	m.bytesWritten.Add(bytes)
	m.recordsWritten.Add(int64(records))
}

// sealTimer starts the seal-latency stopwatch (inert when detached).
func (m *Metrics) sealTimer() obs.Stopwatch {
	if m == nil {
		return obs.Stopwatch{}
	}
	return m.sealSeconds.Start()
}

// ckptTimer starts the checkpoint-latency stopwatch.
func (m *Metrics) ckptTimer() obs.Stopwatch {
	if m == nil {
		return obs.Stopwatch{}
	}
	return m.ckptSeconds.Start()
}

// shardHist exposes the replay-range histogram (nil when detached; a
// nil histogram's stopwatch reads no clock).
func (m *Metrics) shardHist() *obs.Histogram {
	if m == nil {
		return nil
	}
	return m.shardSeconds
}

// span opens a tracer span (nil-safe at every link of the chain).
func (m *Metrics) span(name string) *obs.Span {
	if m == nil {
		return nil
	}
	return m.tracer.Start(name)
}

// itoa is strconv.Itoa under a name that keeps span-label call sites
// compact.
func itoa(n int) string { return strconv.Itoa(n) }

// Observe attaches metrics to the reader: subsequent replays count
// planner decisions, read volume and per-worker-range timing against m.
// Pass nil to detach.
func (r *Reader) Observe(m *Metrics) { r.met = m }

// Observe attaches metrics to the writer: subsequent seals and
// checkpoints count volume and latency against m. Pass nil to
// detach. Safe to call concurrently with producers.
func (w *Writer) Observe(m *Metrics) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.met = m
}
