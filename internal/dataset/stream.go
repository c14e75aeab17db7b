package dataset

import "whereroam/internal/pipeline"

// deviceWalk is a plane's per-device emission loop over one canonical
// shard: it hands emit each device's records, in the device's time
// order, as one slice the walk reuses for the next device.
type deviceWalk[T any] func(sh pipeline.Shard, emit func(i int, recs []T))

// foldShards runs walk over n items' canonical shards on the worker
// pool, each emission shard handing its devices straight to fold:
// nothing is collected, and nothing is ordered across devices. Calls
// for distinct devices run concurrently, so fold may write only state
// owned by its device index i; recs is valid only during the call.
func foldShards[T any](n, workers int, walk deviceWalk[T], fold func(i int, recs []T)) {
	pipeline.Run(n, workers, func(sh pipeline.Shard) { walk(sh, fold) })
}
