package dataset

import (
	"testing"

	"whereroam/internal/pipeline"
	"whereroam/internal/rng"
)

// The counting pre-pass must agree with the serial IMSI allocator: for
// every shard layout, base + shard offset + within-shard rank has to
// equal what a single ordered pass over all devices would allocate.
func TestCountBlocksMatchesSerialAllocation(t *testing.T) {
	root := rng.New(11).Split("mno")
	cfg := DefaultMNOConfig()
	classPick, m2mPick := mnoPicks()

	const n = 700
	keys := make([]blockKey, n)
	for i := 0; i < n; i++ {
		d := drawMNODraft(root, i, cfg, classPick, m2mPick)
		keys[i] = blockKey{home: d.home, base: d.base}
	}

	for _, workers := range []int{1, 3, 8, 0} {
		counts := countBlocks(n, workers, func(i int) blockKey { return keys[i] })
		serial := map[blockKey]uint64{}
		for _, sh := range pipeline.Shards(n, pipeline.ShardCount(n)) {
			off := counts.offsets[sh.Index]
			for i := sh.Lo; i < sh.Hi; i++ {
				got := keys[i].base + off[keys[i]]
				off[keys[i]]++
				want := keys[i].base + serial[keys[i]]
				serial[keys[i]]++
				if got != want {
					t.Fatalf("workers=%d device %d: offset allocation %d, serial allocator %d", workers, i, got, want)
				}
			}
		}
		for k, total := range serial {
			if counts.totals[k] != total {
				t.Fatalf("workers=%d block %v: total %d, want %d", workers, k, counts.totals[k], total)
			}
		}
	}
}
