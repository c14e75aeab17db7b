// Package ingest implements bounded-memory streaming ingestion of a
// CDR/xDR feed: the path from live record streams — an archive's
// replay, a mediation feed — into the sharded devices-catalog builder,
// so a catalog builds while the records are still arriving and no full
// record slice is ever held. It carries CDRs/xDRs only; the
// generators' radio events go straight into per-worker builders.
//
// The core is a device-hash router ([CatalogIngester]): producers
// offer records from any goroutine, each record routes to the
// shard-local [catalog.Builder] owning its device (the
// [catalog.ShardedBuilder.ShardFor] partition), and travels over a
// bounded channel drained by one goroutine per shard. A full channel
// blocks the producer — backpressure, not buffering — so the in-flight
// memory is capped at shards × depth records no matter how large the
// feed grows.
//
// Determinism contract: the catalog builder's output depends only on
// each device's own record order (visited-network and APN first-seen
// orders are per-device state; cross-device interleaving never
// reaches it). The router preserves per-producer send order, and
// every record of a given device comes from exactly one producer, so
// a routed build is bit-identical to a batch build that ingests the
// same per-device sequences — at any shard count or channel depth.
// docs/ARCHITECTURE.md derives the full argument; the root
// determinism tests pin it.
package ingest

import (
	"sync"

	"whereroam/internal/catalog"
	"whereroam/internal/cdrs"
)

// DefaultDepth is the per-shard channel depth used when a caller
// passes a non-positive depth: deep enough to ride out scheduling
// jitter between producers and shard consumers, shallow enough that
// the in-flight window stays a rounding error next to the builder
// state itself.
const DefaultDepth = 1024

// CatalogIngester streams records into a [catalog.ShardedBuilder]
// under a bounded memory envelope. Construct with
// [NewCatalogIngester], feed it from any number of producer
// goroutines via [CatalogIngester.OfferRecord], then call
// [CatalogIngester.Build] once every producer is done.
type CatalogIngester struct {
	sb     *catalog.ShardedBuilder
	queues []chan cdrs.Record
	wg     sync.WaitGroup
	closed bool
}

// NewCatalogIngester starts one consumer goroutine per shard of sb,
// each draining a bounded queue of depth records (non-positive depth
// means [DefaultDepth]) into its shard-local builder. The caller must
// eventually call Close or Build to stop the consumers.
func NewCatalogIngester(sb *catalog.ShardedBuilder, depth int) *CatalogIngester {
	if depth < 1 {
		depth = DefaultDepth
	}
	in := &CatalogIngester{sb: sb, queues: make([]chan cdrs.Record, sb.Shards())}
	for i := range in.queues {
		in.queues[i] = make(chan cdrs.Record, depth)
		in.wg.Add(1)
		go func(i int) {
			defer in.wg.Done()
			b := sb.Builder(i)
			for rec := range in.queues[i] {
				b.AddRecord(rec)
			}
		}(i)
	}
	return in
}

// OfferRecord routes one CDR/xDR to its device's shard, blocking while
// that shard's queue is full. Safe for concurrent producers; a
// device's records must all come from one producer for its ingestion
// order to be well defined.
func (in *CatalogIngester) OfferRecord(rec cdrs.Record) {
	in.queues[in.sb.ShardFor(rec.Device)] <- rec
}

// Close ends ingestion: it closes every shard queue and waits for the
// consumers to drain. Every producer must have finished offering
// before Close is called, and Close itself must come from a single
// goroutine (Build calls it for you). Idempotent.
func (in *CatalogIngester) Close() {
	if in.closed {
		return
	}
	in.closed = true
	for _, q := range in.queues {
		close(q)
	}
	in.wg.Wait()
}

// Build closes the ingester (if still open) and finalizes the sharded
// catalog on workers goroutines, returning records in (device, day)
// order — bit-identical to a batch build over the same per-device
// sequences.
func (in *CatalogIngester) Build(workers int) *catalog.Catalog {
	in.Close()
	return in.sb.Build(workers)
}
