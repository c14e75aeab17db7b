package dataset

import "whereroam/internal/pipeline"

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
