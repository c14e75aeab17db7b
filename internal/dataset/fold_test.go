package dataset

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"whereroam/internal/identity"
	"whereroam/internal/signaling"
)

// deviceSubsequences splits a capture into each device's transactions,
// in capture order.
func deviceSubsequences(txs []signaling.Transaction) map[identity.DeviceID][]signaling.Transaction {
	out := map[identity.DeviceID][]signaling.Transaction{}
	for _, tx := range txs {
		out[tx.Device] = append(out[tx.Device], tx)
	}
	return out
}

// checkFold asserts that the slices a fold saw, indexed by the device
// index it was called with, are exactly the devices' subsequences of
// the materialized capture: every folded device called once, every
// slice one device's, in the capture's order, and no captured device
// missing.
func checkFold(t *testing.T, name string, folded []bool, calls []int, got [][]signaling.Transaction, capture []signaling.Transaction) {
	t.Helper()
	want := deviceSubsequences(capture)
	seen := 0
	for i, txs := range got {
		wantCalls := 0
		if folded[i] {
			wantCalls = 1
		}
		if calls[i] != wantCalls {
			t.Errorf("%s: device %d folded %d times, want %d", name, i, calls[i], wantCalls)
		}
		if len(txs) == 0 {
			continue
		}
		if dev := txs[0].Device; !reflect.DeepEqual(txs, want[dev]) {
			t.Errorf("%s: device %d's folded slice (%d transactions) is not its %d-transaction subsequence of the capture",
				name, i, len(txs), len(want[dev]))
		}
		seen++
	}
	if seen != len(want) {
		t.Errorf("%s: the fold saw %d devices with transactions, the capture holds %d", name, seen, len(want))
	}
}

// FoldM2M's order contract: device i's slice is exactly its
// subsequence of the globally sorted GenerateM2M capture, and its
// truth is the capture's truth for it — at any worker count, on a
// tie-heavy one-day window (cross-device ties at every second), and
// under per-record hash sampling.
func TestFoldM2MMatchesDeviceSubsequences(t *testing.T) {
	type foldCase struct {
		name string
		cfg  M2MConfig
	}
	var cases []foldCase
	for seed := uint64(1); seed <= 3; seed++ {
		for _, workers := range []int{1, 4} {
			cfg := DefaultM2MConfig()
			cfg.Seed, cfg.Devices, cfg.Workers = seed, 400, workers
			cases = append(cases, foldCase{fmt.Sprintf("seed %d workers %d", seed, workers), cfg})
		}
	}
	tie := DefaultM2MConfig()
	tie.Devices, tie.Days, tie.Workers = 600, 1, 4
	sampled := DefaultM2MConfig()
	sampled.Devices, sampled.SampleRate, sampled.Workers = 400, 0.5, 4
	cases = append(cases, foldCase{"one-day ties", tie}, foldCase{"sampled", sampled})

	for _, c := range cases {
		ds := GenerateM2M(c.cfg)
		folded := make([]bool, c.cfg.Devices)
		calls := make([]int, c.cfg.Devices)
		got := make([][]signaling.Transaction, c.cfg.Devices)
		truths := make([]M2MDeviceTruth, c.cfg.Devices)
		FoldM2M(c.cfg, func(i int, truth M2MDeviceTruth, txs []signaling.Transaction) {
			calls[i]++
			truths[i] = truth
			got[i] = slices.Clone(txs)
		})
		for i := range folded {
			folded[i] = true
		}
		checkFold(t, c.name, folded, calls, got, ds.Transactions)
		for i, txs := range got {
			if len(txs) > 0 && !reflect.DeepEqual(truths[i], ds.Truth[txs[0].Device]) {
				t.Errorf("%s: device %d folded with truth %+v, the capture's is %+v", c.name, i, truths[i], ds.Truth[txs[0].Device])
			}
		}
	}
}

// FoldFederationM2M's order contract: it is called once per M2M fleet
// member, with that member's fleet index, and each slice holds the
// member's transactions alone — at least its day-0 attach — in time
// order, at any worker count. The bytes themselves are pinned by the
// fed.m2m digests.
func TestFoldFederationM2MMatchesDeviceSubsequences(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		for _, workers := range []int{1, 4} {
			name := fmt.Sprintf("seed %d workers %d", seed, workers)
			cfg := DefaultFederationConfig()
			cfg.Seed, cfg.Workers = seed, workers
			cfg.FleetDevices, cfg.NativePerSite, cfg.Days = 150, 20, 5
			fed := GenerateFederation(cfg)

			calls := make([]int, len(fed.Fleet))
			got := make([][]signaling.Transaction, len(fed.Fleet))
			FoldFederationM2M(fed, func(i int, txs []signaling.Transaction) {
				calls[i]++
				got[i] = slices.Clone(txs)
			})
			members := 0
			for i := range fed.Fleet {
				wantCalls := 0
				if fed.Fleet[i].Class.IsM2M() {
					wantCalls = 1
					members++
				}
				if calls[i] != wantCalls {
					t.Errorf("%s: fleet member %d folded %d times, want %d", name, i, calls[i], wantCalls)
				}
				if wantCalls == 1 && len(got[i]) == 0 {
					t.Errorf("%s: M2M fleet member %d folded no transactions", name, i)
				}
				for k, tx := range got[i] {
					if tx.Device != fed.Fleet[i].ID {
						t.Fatalf("%s: fleet member %d folded device %v's transaction", name, i, tx.Device)
					}
					if k > 0 && tx.Time.Before(got[i][k-1].Time) {
						t.Fatalf("%s: fleet member %d's transactions are not in time order", name, i)
					}
				}
			}
			if members == 0 {
				t.Fatalf("%s: the fleet has no M2M member; contract vacuous", name)
			}
		}
	}
}
