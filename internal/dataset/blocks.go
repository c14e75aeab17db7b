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

// blockCounts is the outcome of a counting pre-pass over one
// population: per canonical shard, the starting allocation offset of
// every block the shard draws from (the prefix-sum of earlier shards'
// counts), plus the grand totals per block. Device i in shard s with
// block k gets MSIN base + offsets[s][k] + (its rank among the shard's
// earlier k-devices) — exactly the IMSI a serial index-order
// allocation would have handed it.
type blockCounts struct {
	offsets []map[blockKey]uint64
	totals  map[blockKey]uint64
}

// nextIMSI hands out the next IMSI of block (home, base) from one
// shard's offsets, advancing them in place; a shard's devices must be
// numbered in index order, each shard exactly once.
func nextIMSI(off map[blockKey]uint64, home mccmnc.PLMN, base uint64) identity.IMSI {
	k := blockKey{home: home, base: base}
	n := off[k]
	off[k] = n + 1
	return identity.IMSI{PLMN: home, MSIN: base + n}
}

// countBlocks runs the counting pre-pass: key replays device i's draft
// draws and returns its allocation block (it must be worker-count
// invariant, which per-device substream replay guarantees). The
// parallel count is O(devices) time and O(shards × blocks) space — the
// whole residue of the serial allocation barrier, which is what lets a
// device be drafted, numbered, emitted and released without its
// neighbours ever being resident.
func countBlocks(n, workers int, key func(i int) blockKey) blockCounts {
	perShard := pipeline.Map(n, workers, func(sh pipeline.Shard) map[blockKey]uint64 {
		counts := map[blockKey]uint64{}
		for i := sh.Lo; i < sh.Hi; i++ {
			counts[key(i)]++
		}
		return counts
	})
	running := map[blockKey]uint64{}
	offsets := make([]map[blockKey]uint64, len(perShard))
	for s, counts := range perShard {
		off := make(map[blockKey]uint64, len(counts))
		for k := range counts {
			off[k] = running[k]
		}
		offsets[s] = off
		for k, cnt := range counts {
			running[k] += cnt
		}
	}
	return blockCounts{offsets: offsets, totals: running}
}
