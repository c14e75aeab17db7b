package dataset

import (
	"runtime"
	"testing"

	"whereroam/internal/gsma"
)

// newMNOWalk replays the drafts through a totals-only allocator to
// build the IR.88 registry before the first device: its allocations
// are a constant (the block maps and the registry), flat in devices.
func TestNewMNOWalkAllocations(t *testing.T) {
	cfg := DefaultMNOConfig()
	// Hold the shared GSMA catalog, so the walk borrows it instead of
	// synthesizing it again once a collection drops it.
	db := gsma.Synthesize(cfg.GSMASeed)
	for _, n := range []int{3000, 30000} {
		cfg.Devices = n
		allocs := testing.AllocsPerRun(5, func() { newMNOWalk(cfg) })
		t.Logf("%d devices: %.0f allocations", n, allocs)
		if allocs > 64 {
			t.Errorf("%d devices: %.0f allocations, want at most 64", n, allocs)
		}
	}
	runtime.KeepAlive(db)
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
