package dataset

import (
	"whereroam/internal/ingest"
	"whereroam/internal/pipeline"
)

// deviceWalk is a plane's per-device emission loop over one canonical
// shard: it hands emit each device's records, in the device's time
// order, as one slice the walk reuses for the next device.
type deviceWalk[T any] func(sh pipeline.Shard, emit func(i int, recs []T))

// collectShards runs walk over n items' canonical shards on the
// worker pool, each shard appending what it emits to a shard-local
// slice, and concatenates the slices in shard order: the serial
// emission order at any worker count, with no channel hop. It is the
// materializing sink of a per-device walk; foldShards is the folding
// one.
func collectShards[T any](n, workers int, walk deviceWalk[T]) []T {
	outs := pipeline.Map(n, workers, func(sh pipeline.Shard) []T {
		var out []T
		walk(sh, func(_ int, recs []T) { out = append(out, recs...) })
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

// foldShards runs the same walk with each emission shard handing its
// devices straight to fold: nothing is collected, and nothing is
// ordered across devices. Calls for distinct devices run concurrently,
// so fold may write only state owned by its device index i; recs is
// valid only during the call.
func foldShards[T any](n, workers int, walk deviceWalk[T], fold func(i int, recs []T)) {
	pipeline.Run(n, workers, func(sh pipeline.Shard) { walk(sh, fold) })
}

// streamShards runs a per-record walk with each shard sending into a
// private bounded window (ingest.Ordered; depth below one means
// ingest.DefaultDepth) while the calling goroutine drains the windows
// in shard order into sink. The sink therefore observes exactly the
// serial emission order at any worker count, while producers run
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
