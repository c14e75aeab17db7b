package dataset

import (
	"testing"

	"whereroam/internal/catalog"
	"whereroam/internal/devices"
	"whereroam/internal/rng"
)

// emitDeviceDays carves each record's visited network and APN from
// the worker's slabs instead of allocating two one-element lists per
// record, so a walk's records cost a small fraction of an allocation
// each — the odd traveller's trip map and a slab chunk every 128
// records.
func TestEmitDeviceDaysAllocationsPerRecord(t *testing.T) {
	cfg := DefaultMNOConfig()
	cfg.Devices = 400
	w := newMNOWalk(cfg)
	var mobs mobilitySlabs
	devs := make([]devices.Device, cfg.Devices)
	srcs := make([]*rng.Source, len(devs))
	for i := range devs {
		devs[i], _, _ = w.device(i, &mobs)
		srcs[i] = rng.New(uint64(i)).Split("days")
	}
	var scratch dayScratch
	records, apns := 0, 0
	emit := func(rec catalog.DailyRecord) {
		records++
		apns += len(rec.APNs)
	}
	walk := func() {
		for i := range devs {
			emitDeviceDays(srcs[i], cfg.Host, cfg.Start, cfg.Days, emit, &devs[i], &scratch)
		}
	}
	walk()
	records, apns = 0, 0
	const runs = 3
	allocs := testing.AllocsPerRun(runs, walk)
	// AllocsPerRun walks once more before it counts.
	perRun := float64(records) / (runs + 1)
	if perRun < 1000 || apns == 0 {
		t.Fatalf("%.0f records (%d APNs) per walk: too few to measure", perRun, apns)
	}
	if perRecord := allocs / perRun; perRecord > 0.05 {
		t.Fatalf("%.3f allocations per record (%.0f per walk of %.0f records), want at most 0.05", perRecord, allocs, perRun)
	}
}

// drawHome reads a home table built once: a draw allocates nothing,
// for every table the generators draw from.
func TestDrawHomeAllocatesNothing(t *testing.T) {
	src := rng.New(3)
	tables := []*homeTable{smartHomes, featHomes}
	for _, m := range m2mMix {
		tables = append(tables, m2mHomes[m.class])
	}
	for i, table := range tables {
		allocs := testing.AllocsPerRun(100, func() {
			if drawHome(src.Split("home"), table).IsZero() {
				t.Fatal("drawHome returned the zero PLMN")
			}
		})
		if allocs != 0 {
			t.Errorf("table %d: %.1f allocations per draw, want 0", i, allocs)
		}
	}
}
