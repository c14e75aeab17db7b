package dataset

import (
	"testing"

	"whereroam/internal/pipeline"
	"whereroam/internal/rng"
)

// mnoBlockKeys replays the first n MNO drafts' allocation blocks.
func mnoBlockKeys(n int) []blockKey {
	root := rng.New(11).Split("mno")
	cfg := DefaultMNOConfig()
	classPick, m2mPick := mnoPicks()
	keys := make([]blockKey, n)
	for i := range keys {
		d := drawMNODraft(root, i, cfg, classPick, m2mPick)
		keys[i] = blockKey{home: d.home, base: d.base}
	}
	return keys
}

// The per-shard offsets must agree with the serial IMSI allocator:
// base + shard offset + within-shard rank has to equal what a single
// ordered pass over all devices allocates, with one device per shard
// (n = 100) and with several (n = 700).
func TestCountBlocksMatchesSerialAllocation(t *testing.T) {
	for _, n := range []int{100, 700} {
		keys := mnoBlockKeys(n)
		counts := countBlocks(n, func(i int) blockKey { return keys[i] })
		serial := map[blockKey]uint64{}
		for _, sh := range pipeline.Shards(n, pipeline.ShardCount(n)) {
			off := counts.offsets[sh.Index]
			for i := sh.Lo; i < sh.Hi; i++ {
				k := keys[i]
				got, want := nextIMSI(off, k.home, k.base), nextIMSI(serial, k.home, k.base)
				if got != want {
					t.Fatalf("n=%d device %d: offset allocation %v, serial allocator %v", n, i, got, want)
				}
			}
		}
		for k, total := range serial {
			if counts.totals[k] != total {
				t.Fatalf("n=%d block %v: total %d, want %d", n, k, counts.totals[k], total)
			}
		}
	}
}

// countBlocks keeps one small offset map per canonical shard and
// nothing per device.
func TestCountBlocksAllocations(t *testing.T) {
	const n = 3000
	keys := mnoBlockKeys(n)
	allocs := testing.AllocsPerRun(5, func() {
		countBlocks(n, func(i int) blockKey { return keys[i] })
	})
	if allocs > 600 {
		t.Fatalf("%.0f allocations to count %d devices' blocks, want at most 600", allocs, n)
	}
}

// newM2MWalk numbers its population in one serial pass: its
// allocations are the population's three slices plus a constant, flat
// in devices.
func TestNewM2MWalkAllocations(t *testing.T) {
	for _, n := range []int{1200, 12000} {
		cfg := DefaultM2MConfig()
		cfg.Devices = n
		allocs := testing.AllocsPerRun(5, func() { newM2MWalk(cfg) })
		if allocs > 64 {
			t.Errorf("%d devices: %.0f allocations, want at most 64", n, allocs)
		}
	}
}
