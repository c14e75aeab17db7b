package store

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"whereroam/internal/apn"
	"whereroam/internal/cdrs"
	"whereroam/internal/identity"
)

// Per-segment device filters promise no false negatives — a present
// device always tests positive — and a bounded false-positive rate at
// the sized 10 bits/device budget. Both halves of that promise are
// what makes bloom pruning a pure optimization.
func TestBloomFalsePositiveOnly(t *testing.T) {
	for _, n := range []int{1, 7, 100, 5000} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(n)))
			bits := make([]byte, bloomSize(n))
			present := make(map[uint64]struct{}, n)
			for len(present) < n {
				present[rng.Uint64()] = struct{}{}
			}
			for h := range present {
				bloomAdd(bits, bloomHashCount, h)
			}
			for h := range present {
				if !bloomMaybe(bits, bloomHashCount, h) {
					t.Fatalf("false negative for %#x", h)
				}
			}
			const trials = 20000
			fp := 0
			for i := 0; i < trials; i++ {
				h := rng.Uint64()
				if _, ok := present[h]; ok {
					continue
				}
				if bloomMaybe(bits, bloomHashCount, h) {
					fp++
				}
			}
			// 10 bits/device with 4 hashes gives ~1.2% theoretical FP;
			// 5% leaves slack for the power-of-two floor and rounding.
			// The minimum-size floor (64B) makes tiny filters far
			// sparser than sized, so the bound holds there too.
			if rate := float64(fp) / trials; rate > 0.05 {
				t.Fatalf("false-positive rate %.3f exceeds 5%%", rate)
			}
		})
	}
}

// Degenerate filters must answer "maybe" — never pruning what they
// cannot rule out.
func TestBloomDegenerateIsMaybe(t *testing.T) {
	if !bloomMaybe(nil, bloomHashCount, 42) {
		t.Fatal("nil filter pruned")
	}
	if !bloomMaybe([]byte{}, bloomHashCount, 42) {
		t.Fatal("empty filter pruned")
	}
	if !bloomMaybe(make([]byte, 64), 0, 42) {
		t.Fatal("k=0 filter pruned")
	}
	if !bloomMaybe(make([]byte, 65), bloomHashCount, 42) {
		t.Fatal("non-power-of-two filter pruned")
	}
}

// Store-level property test: for any device — present or absent —
// a bloom-pruned replay equals the same replay with bloom pruning
// disabled; the filters only ever skip segments that truly lack the
// device. Run against a compacted multi-site store so segments hold
// disjoint device subsets and pruning actually bites.
func TestBloomPruningIsFalsePositiveOnly(t *testing.T) {
	const (
		devices = 60
		days    = 4
	)
	root := t.TempDir()
	feeds := siteFeeds(t, 7, devices, days, 3)
	dirs := writeSiteStores(t, root, days, 16, feeds)
	out := filepath.Join(root, "compacted")
	if _, err := Compact(out, dirs, CompactOptions{SegmentRecords: 16}); err != nil {
		t.Fatal(err)
	}
	r, err := Open(out)
	if err != nil {
		t.Fatal(err)
	}

	var present []identity.DeviceID
	seen := make(map[identity.DeviceID]struct{})
	for _, feed := range feeds {
		for i := range feed {
			if _, ok := seen[feed[i].Device]; !ok {
				seen[feed[i].Device] = struct{}{}
				present = append(present, feed[i].Device)
			}
		}
	}
	rng := rand.New(rand.NewSource(99))
	absent := make([]identity.DeviceID, 0, 20)
	for len(absent) < 20 {
		d := identity.DeviceID(rng.Uint64())
		if _, ok := seen[d]; !ok {
			absent = append(absent, d)
		}
	}

	prunedSomething := false
	for _, dev := range append(append([]identity.DeviceID(nil), present...), absent...) {
		q := Query{}.Device(dev)
		withBloom, bStats, err := r.Replay(q, 2)
		if err != nil {
			t.Fatal(err)
		}
		without, wStats, err := r.Replay(q.WithoutBloom(), 2)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(withBloom, without) {
			t.Fatalf("device %#x: bloom pruning changed the replay", uint64(dev))
		}
		if wStats.SegmentsPrunedBloom != 0 {
			t.Fatal("WithoutBloom still pruned via bloom")
		}
		if bStats.SegmentsPrunedBloom > 0 {
			prunedSomething = true
		}
		if plan := r.Plan(q); plan.PrunedBloom != int(bStats.SegmentsPrunedBloom) {
			t.Fatalf("device %#x: plan says %d bloom-pruned, replay says %d",
				uint64(dev), plan.PrunedBloom, bStats.SegmentsPrunedBloom)
		}
	}
	if !prunedSomething {
		t.Fatal("bloom pruning never fired across 80 device queries — fixture too weak")
	}
}

// Range device queries never consult the bloom (a range cannot be
// tested against a per-device filter) and exact queries via
// Devices(d, d) do.
func TestBloomOnlyForExactDevice(t *testing.T) {
	const days = 3
	root := t.TempDir()
	feeds := siteFeeds(t, 5, 30, days, 2)
	dirs := writeSiteStores(t, root, days, 16, feeds)
	out := filepath.Join(root, "compacted")
	if _, err := Compact(out, dirs, CompactOptions{SegmentRecords: 16}); err != nil {
		t.Fatal(err)
	}
	r, err := Open(out)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	d := identity.DeviceID(rng.Uint64()) // absent with overwhelming probability
	if plan := r.Plan(Query{}.Devices(d, d)); plan.PrunedBloom == 0 {
		t.Fatal("exact Devices(d, d) query did not consult the bloom")
	}
	if plan := r.Plan(Query{}.Devices(d, d+1)); plan.PrunedBloom != 0 {
		t.Fatal("range device query consulted the bloom")
	}
}

// Blooms must earn their footer bytes on the shape range indexes
// cannot help with: each device confined to one window day, written in
// time order with small segments, so every segment's device range
// spans nearly the whole ID space but holds only its own day's
// devices. Exact-device replays that consult the filters skip the
// other days' segments; with WithoutBloom they decode them all. The
// floor is on bytes decoded, not on time.
func TestBloomHalvesExactDeviceBytesRead(t *testing.T) {
	const (
		days       = 8
		devsPerDay = 128
		perDevice  = 4
		lookups    = 32
	)
	rng := rand.New(rand.NewSource(11))
	a := apn.MustParse("smhp.centricaplc.com")
	devs := make([][]identity.DeviceID, days)
	for i := 0; i < days*devsPerDay; i++ {
		d := identity.DeviceID(rng.Uint64())
		devs[uint64(d)%days] = append(devs[uint64(d)%days], d)
	}
	var recs []cdrs.Record
	for day := range devs {
		for slot := 0; slot < perDevice; slot++ {
			at := testStart.Add(time.Duration(day)*24*time.Hour + time.Duration(slot)*6*time.Hour)
			for i, d := range devs[day] {
				recs = append(recs, cdrs.Record{
					Device: d, Time: at.Add(time.Duration(i) * time.Second),
					SIM: testHome, Visited: testHost, Kind: cdrs.KindData, RAT: 1,
					Duration: 30 * time.Second, Bytes: uint64(64 + i), APN: a,
				})
			}
		}
	}
	dir := filepath.Join(t.TempDir(), "bloomshape")
	writeStore(t, dir, days, 256, recs)
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	bytesRead := func(base Query) int64 {
		var total int64
		for i := 0; i < lookups; i++ {
			cat, stats, err := r.Replay(base.Device(devs[i%days][i/days]), 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(cat.Records) == 0 {
				t.Fatalf("lookup %d found no records", i)
			}
			total += stats.BytesRead
		}
		return total
	}
	with, without := bytesRead(Query{}), bytesRead(Query{}.WithoutBloom())
	if with == 0 || 2*with > without {
		t.Fatalf("%d exact-device replays read %d bytes with blooms, %d without: want at least 2x fewer",
			lookups, with, without)
	}
}
