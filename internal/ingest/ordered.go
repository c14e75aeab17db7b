package ingest

import (
	"sync/atomic"

	"whereroam/internal/probe"
)

// Ordered is a deterministic bounded fan-in: each of N producer
// shards owns a private bounded stream, and a single consumer drains
// the streams concatenated in shard order. The output sequence is
// exactly what a serial shard-by-shard run would emit — at any worker
// count — while producers run ahead of the consumer by at most depth
// records per shard. It is the streaming counterpart of collecting
// shard-local slices and concatenating them after a fan-in barrier:
// same order, no materialization.
//
// Pair it with [pipeline.Run]: size the fan-in with
// [pipeline.ShardCount] and hand each shard callback its
// [Ordered.Sink].
type Ordered[T any] struct {
	streams []*probe.Stream[T]
	closed  []atomic.Bool
}

// NewOrdered returns a fan-in over shards producer streams with the
// given per-shard depth (non-positive means [DefaultDepth]).
func NewOrdered[T any](shards, depth int) *Ordered[T] {
	if depth < 1 {
		depth = DefaultDepth
	}
	o := &Ordered[T]{
		streams: make([]*probe.Stream[T], shards),
		closed:  make([]atomic.Bool, shards),
	}
	for i := range o.streams {
		o.streams[i] = probe.NewStream[T](depth)
	}
	return o
}

// Sink returns shard i's send function — a valid probe tap sink.
func (o *Ordered[T]) Sink(i int) func(T) { return o.streams[i].Send }

// CloseShard ends shard i's stream; the consumer moves on to shard
// i+1 once it has drained the remainder. Idempotent.
func (o *Ordered[T]) CloseShard(i int) {
	if o.closed[i].CompareAndSwap(false, true) {
		o.streams[i].Close()
	}
}

// CloseAll closes every shard stream that is still open. It exists
// for failure paths — releasing a blocked consumer after a producer
// panic — and must not race with in-flight Sends.
func (o *Ordered[T]) CloseAll() {
	for i := range o.streams {
		o.CloseShard(i)
	}
}

// Drain consumes every shard stream in shard order into sink,
// blocking until all streams close, and returns how many records it
// delivered. Run it on the consuming goroutine; producers block once
// their window fills, so a stalled consumer stalls the producers
// rather than growing memory.
func (o *Ordered[T]) Drain(sink func(T)) int64 {
	var n int64
	for _, s := range o.streams {
		for rec := range s.C {
			sink(rec)
			n++
		}
	}
	return n
}
