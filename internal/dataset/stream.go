package dataset

import (
	"whereroam/internal/ingest"
	"whereroam/internal/pipeline"
)

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
