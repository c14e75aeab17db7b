package dataset

import (
	"whereroam/internal/identity"
	"whereroam/internal/mccmnc"
	"whereroam/internal/pipeline"
)

// blockKey identifies one IMSI allocation block: a (home operator,
// MSIN base) pair whose devices are numbered sequentially in device
// order.
type blockKey struct {
	home mccmnc.PLMN
	base uint64
}

// nextIMSI hands out the next IMSI of block (home, base) from the
// allocator off, advancing it in place. Numbering a population in
// device order over one allocator is the serial allocation every
// generator's identities are defined by.
func nextIMSI(off map[blockKey]uint64, home mccmnc.PLMN, base uint64) identity.IMSI {
	k := blockKey{home: home, base: base}
	n := off[k]
	off[k] = n + 1
	return identity.IMSI{PLMN: home, MSIN: base + n}
}

// blockCounts is the outcome of countBlocks over one population: per
// canonical shard, the allocation offset of every block the shard
// draws from, taken at the shard's first device of that block, plus
// the grand totals per block. Numbering a shard's devices in index
// order with nextIMSI from its offsets hands each device exactly the
// IMSI the serial allocation does.
type blockCounts struct {
	offsets []map[blockKey]uint64
	totals  map[blockKey]uint64
}

// countBlocks runs the serial allocation over key, which replays
// device i's draft draws and returns its allocation block, and keeps
// only the totals and each canonical shard's starting offsets:
// O(devices) time and O(shards × blocks) space, which is what lets a
// shard's devices be drafted, numbered, emitted and released without
// their neighbours ever being resident.
func countBlocks(n int, key func(i int) blockKey) blockCounts {
	shards := pipeline.Shards(n, pipeline.ShardCount(n))
	offsets := make([]map[blockKey]uint64, len(shards))
	totals := map[blockKey]uint64{}
	for _, sh := range shards {
		off := map[blockKey]uint64{}
		for i := sh.Lo; i < sh.Hi; i++ {
			k := key(i)
			imsi := nextIMSI(totals, k.home, k.base)
			if _, seen := off[k]; !seen {
				off[k] = imsi.MSIN - k.base
			}
		}
		offsets[sh.Index] = off
	}
	return blockCounts{offsets: offsets, totals: totals}
}
