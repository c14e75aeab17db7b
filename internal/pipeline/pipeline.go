// Package pipeline is the sharded fan-out/fan-in engine the hot
// layers of the reproduction run on: dataset synthesis, catalog
// aggregation and classification all partition their item space into
// contiguous shards, process shards on a bounded worker pool, and
// merge shard-local results in shard order.
//
// The engine is built for determinism, not just speed. Shard
// boundaries depend only on the item count — never on the worker
// count — so shard-local accumulators, shard-ordered merges and
// per-shard RNG substreams are bit-identical whether one worker
// drains the shard queue or sixteen do. A caller
// that (a) derives randomness per shard or per item from
// [whereroam/internal/rng] substreams and (b) combines shard results
// in shard order gets the same output at every parallelism level by
// construction.
//
// The rule the layers follow: canonical shards stay the unit of
// scheduling, and of every merge that depends on order. An
// accumulator whose merge ignores grouping lives once per worker —
// device-disjoint catalog builders followed by a (device, day) sort,
// a set union, per-device summaries followed by a sort. Such an
// accumulator is either borrowed by each canonical shard for its run
// (the dataset capture's builders) or fed one contiguous range per
// worker ([PerWorker]); either way it costs per worker, not per
// shard, and the output is the same at every worker count.
// [PerWorker] is the one range cutter: catalog summaries, store replay
// (one catalog builder and decoder per range) and compaction's run
// opening (one decoder per range) call it.
package pipeline

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
)

// Workers normalizes a requested worker count: values below one mean
// "one worker per available CPU" (runtime.GOMAXPROCS). Every -workers
// flag and Workers config field in the repository follows this rule.
func Workers(n int) int {
	if n < 1 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// maxShards bounds the number of shards per run. It is deliberately
// larger than any plausible worker count so the shard queue keeps
// every worker busy even when shards are uneven, while staying small
// enough that shard bookkeeping is negligible.
const maxShards = 256

// Shard is one contiguous index range [Lo, Hi) of a partitioned item
// space — the unit of work handed to a worker.
type Shard struct {
	Index int // shard number in [0, Count)
	Count int // total shards in the partition
	Lo    int // first item index (inclusive)
	Hi    int // one past the last item index (exclusive)
}

// Shards partitions n items into count contiguous near-equal ranges
// (the first n%count shards are one item longer). It returns fewer
// than count shards only when n < count; zero items yield no shards.
func Shards(n, count int) []Shard {
	if n <= 0 || count <= 0 {
		return nil
	}
	if count > n {
		count = n
	}
	size, rem := n/count, n%count
	out := make([]Shard, count)
	lo := 0
	for i := range out {
		hi := lo + size
		if i < rem {
			hi++
		}
		out[i] = Shard{Index: i, Count: count, Lo: lo, Hi: hi}
		lo = hi
	}
	return out
}

// numShards is the canonical shard count for n items: enough shards
// to load-balance any realistic pool, capped so bookkeeping stays
// cheap, and — crucially — a function of n alone.
func numShards(n int) int {
	if n < maxShards {
		return n
	}
	return maxShards
}

// ShardCount returns the canonical shard count Run and Map use for n
// items. It is a function of the item count alone — never of the
// worker count — which is what keeps shard-indexed artefacts
// (per-shard builders and accumulators) worker-count-invariant.
// Callers that pre-size per-shard structures for Run/Map must use
// this count.
func ShardCount(n int) int { return numShards(n) }

// Run partitions n items into the canonical shards and fans them out
// over a pool of Workers(workers) goroutines, blocking until every
// shard completed (the fan-in barrier). fn is called once per shard;
// with workers == 1 the shards run on the caller's goroutine, in
// order, over the exact same boundaries, which is what makes the
// serial and parallel paths comparable in benchmarks and tests. A
// panic in any shard is re-raised on the caller's goroutine.
func Run(n, workers int, fn func(Shard)) {
	runShards(Shards(n, numShards(n)), workers, fn)
}

// Map runs fn over every canonical shard of n items and returns the
// per-shard results in shard order, ready for a deterministic
// shard-ordered merge.
func Map[T any](n, workers int, fn func(Shard) T) []T {
	shards := Shards(n, numShards(n))
	out := make([]T, len(shards))
	runShards(shards, workers, func(s Shard) { out[s.Index] = fn(s) })
	return out
}

// PerWorker cuts n items into one contiguous range per worker —
// Shards(n, Workers(workers)), so the edges move with the worker
// count — runs fn once per range on its own goroutine and returns the
// results in range order. It is for accumulators whose merge ignores
// grouping (see the package doc): anything that depends on where a
// range ends must use Map's canonical shards instead.
func PerWorker[T any](n, workers int, fn func(Shard) T) []T {
	ranges := Shards(n, Workers(workers))
	out := make([]T, len(ranges))
	runShards(ranges, workers, func(s Shard) { out[s.Index] = fn(s) })
	return out
}

func runShards(shards []Shard, workers int, fn func(Shard)) {
	if len(shards) == 0 {
		return
	}
	w := Workers(workers)
	if w > len(shards) {
		w = len(shards)
	}
	if w <= 1 {
		for _, s := range shards {
			fn(s)
		}
		return
	}

	// Bounded fan-out: a small shard queue keeps memory flat while
	// idle workers always find work, and the WaitGroup is the fan-in.
	work := make(chan Shard, w)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var panicked *ShardPanic
	for i := 0; i < w; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range work {
				func() {
					defer func() {
						if r := recover(); r != nil {
							stack := debug.Stack()
							mu.Lock()
							if panicked == nil {
								panicked = &ShardPanic{Shard: s, Value: r, Stack: stack}
							}
							mu.Unlock()
						}
					}()
					fn(s)
				}()
			}
		}()
	}
	for _, s := range shards {
		work <- s
	}
	close(work)
	wg.Wait()
	if panicked != nil {
		panic(*panicked)
	}
}

// ShardPanic is the panic value Run re-raises on the caller's
// goroutine when a shard worker panicked: it carries the original
// panic value and the worker's stack trace, which would otherwise be
// lost across the fan-in (the first panicking shard wins).
type ShardPanic struct {
	Shard Shard
	Value any
	Stack []byte
}

// String renders the shard, panic value and captured worker stack.
func (p ShardPanic) String() string {
	return fmt.Sprintf("pipeline: shard %d [%d,%d) worker panicked: %v\n\nworker stack:\n%s",
		p.Shard.Index, p.Shard.Lo, p.Shard.Hi, p.Value, p.Stack)
}
