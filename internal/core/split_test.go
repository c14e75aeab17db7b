package core_test

import (
	"reflect"
	"slices"
	"testing"

	"whereroam/internal/catalog"
	"whereroam/internal/cdrs"
	"whereroam/internal/core"
	"whereroam/internal/dataset"
	"whereroam/internal/gsma"
	"whereroam/internal/rng"
	"whereroam/internal/store"
)

// TestDeriveAnyContiguousSplitMatchesSerial is the split/merge
// relation over archived sites: a store's record stream in store order
// (ReplayRecords, the sequential oracle), cut at random contiguous
// points into builders that fold in order with Builder.Merge, derives
// the population one builder over the whole stream derives.
// Reader.Replay's one range per worker rests on exactly this relation.
func TestDeriveAnyContiguousSplitMatchesSerial(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		cfg := dataset.DefaultFederationConfig()
		cfg.Seed = seed
		cfg.FleetDevices, cfg.NativePerSite, cfg.Days = 150, 80, 5
		cfg.ArchiveDir = t.TempDir()
		fed := dataset.GenerateFederation(cfg)
		src := rng.New(seed)
		for _, host := range fed.Hosts {
			r, err := store.Open(store.SiteDir(cfg.ArchiveDir, host.Concat()))
			if err != nil {
				t.Fatal(err)
			}
			var recs []cdrs.Record
			if _, err := r.ReplayRecords(store.Query{}, func(rec cdrs.Record) { recs = append(recs, rec) }); err != nil {
				t.Fatal(err)
			}
			meta := r.Manifest().Meta()
			want := deriveSplit(meta, fed.GSMA, recs, nil)
			if len(want.Sums) == 0 || core.Breakdown(want.Results)[core.ClassM2M] == 0 {
				t.Fatalf("seed %d site %s: the population has no m2m devices to check", seed, host)
			}
			for k := 2; k <= 6; k++ {
				for trial := 0; trial < 4; trial++ {
					cuts := make([]int, k-1)
					for i := range cuts {
						cuts[i] = src.Intn(len(recs) + 1)
					}
					slices.Sort(cuts)
					if got := deriveSplit(meta, fed.GSMA, recs, cuts); !reflect.DeepEqual(want, got) {
						t.Fatalf("seed %d site %s cuts %v: the folded population differs from the one-builder derive", seed, host, cuts)
					}
				}
			}
		}
	}
}

// deriveSplit cuts recs at the sorted positions cuts, feeds each part
// to its own builder, folds the builders in part order and derives the
// population of the built catalog.
func deriveSplit(meta store.Meta, db *gsma.DB, recs []cdrs.Record, cuts []int) *core.Population {
	var acc *catalog.Builder
	lo := 0
	for _, hi := range append(cuts, len(recs)) {
		b := catalog.NewBuilder(meta.Host, meta.Start, meta.Days, nil)
		for i := lo; i < hi; i++ {
			b.AddRecord(recs[i])
		}
		if acc == nil {
			acc = b
		} else {
			acc.Merge(b)
		}
		lo = hi
	}
	return core.Derive(acc.Build(), db, core.NewLabeler(meta.Host), 1)
}
