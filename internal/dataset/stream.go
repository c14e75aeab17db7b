package dataset

import (
	"whereroam/internal/catalog"
	"whereroam/internal/cdrs"
	"whereroam/internal/ingest"
	"whereroam/internal/pipeline"
	"whereroam/internal/probe"
	"whereroam/internal/radio"
)

// GenerateSMIPStreaming is the bounded-memory twin of
// GenerateSMIPRaw: the same population, the same per-event synthesis
// through probe taps, but the radio events and CDRs/xDRs flow
// straight from the taps into an ingest.CatalogIngester — the
// device-hash router over shard-local catalog builders — while the
// capture is still being generated. No event slice is ever
// materialized; in-flight memory is capped at the router's channel
// windows, so peak allocation stays flat where the batch path grows
// linearly with the capture.
//
// The built catalog is bit-identical to GenerateSMIPRaw's at any
// worker count: both paths deliver each device's records in the same
// per-device time-sorted order, which is the only order the builder's
// output depends on (see internal/ingest and docs/ARCHITECTURE.md).
//
// With cfg.ArchiveCDRs set, every CDR/xDR additionally fans out to
// the archive sink before it reaches the router — persist-and-ingest
// in one pass, the feed never materialized.
func GenerateSMIPStreaming(cfg SMIPConfig) *SMIPDataset {
	g := newSMIPEmission(cfg)
	workers := pipeline.Workers(cfg.Workers)
	sb := catalog.NewShardedBuilder(cfg.Host, cfg.Start, cfg.Days, g.grid, workers)
	in := ingest.NewCatalogIngester(sb, 0)
	// Build closes on the happy path (Close is idempotent); the defer
	// covers an emission panic, so a caller that recovers it does not
	// leak the per-shard consumer goroutines and their channel windows.
	defer in.Close()
	recSink := in.OfferRecord
	if cfg.ArchiveCDRs != nil {
		recSink = probe.Fanout(cfg.ArchiveCDRs, in.OfferRecord)
	}
	g.emitCohorts(func(label string, sh pipeline.Shard) (*probe.Tap[radio.Event], *probe.Tap[cdrs.Record]) {
		return probe.NewTap("mme-msc-sgsn", cfg.Seed, in.OfferRadio),
			probe.NewTap("mediation", cfg.Seed, recSink)
	})
	g.ds.Catalog = in.Build(cfg.Workers)
	return g.ds
}

// collectShards runs walk over n items' canonical shards on the
// worker pool, each shard appending what it sends to a shard-local
// slice, and concatenates the slices in shard order: the serial
// emission order at any worker count, with no channel hop. It is the
// materializing sink of a generation plane's one emission walk;
// streamShards is the streaming one.
func collectShards[T any](n, workers int, walk func(sh pipeline.Shard, send func(T))) []T {
	outs := pipeline.Map(n, workers, func(sh pipeline.Shard) []T {
		var out []T
		walk(sh, func(rec T) { out = append(out, rec) })
		return out
	})
	total := 0
	for _, o := range outs {
		total += len(o)
	}
	all := make([]T, 0, total)
	for _, o := range outs {
		all = append(all, o...)
	}
	return all
}

// streamShards runs the same walk with each shard sending into a
// private bounded window (ingest.Ordered; depth below one means
// ingest.DefaultDepth) while the calling goroutine drains the windows
// in shard order into sink. The sink therefore observes exactly the
// sequence collectShards would have returned, while producers run
// ahead of it by at most depth records per shard — a stalled sink
// blocks them: backpressure, not buffering.
func streamShards[T any](n, workers, depth int, walk func(sh pipeline.Shard, send func(T)), sink func(T)) {
	ord := ingest.NewOrdered[T](pipeline.ShardCount(n), depth)
	// The emission fan-out runs beside the drain; a shard's stream
	// closes as its producer finishes, and a producer panic closes
	// every stream so the drain unblocks before the panic is
	// re-raised on the caller.
	done := make(chan any, 1)
	go func() {
		defer func() {
			p := recover()
			ord.CloseAll()
			done <- p
		}()
		pipeline.Run(n, workers, func(sh pipeline.Shard) {
			// Close in a defer: a shard that panics mid-emission must
			// still end its stream, or the drain would block on it
			// forever while sibling producers sit on full windows and
			// the panic never surfaces.
			defer ord.CloseShard(sh.Index)
			walk(sh, ord.Sink(sh.Index))
		})
	}()
	ord.Drain(sink)
	if p := <-done; p != nil {
		panic(p)
	}
}
