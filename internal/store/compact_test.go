package store

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"whereroam/internal/apn"
	"whereroam/internal/catalog"
	"whereroam/internal/cdrs"
	"whereroam/internal/identity"
	"whereroam/internal/mccmnc"
)

// sitePLMNs are the per-site observers of the synthetic federation
// feeds below.
var sitePLMNs = []mccmnc.PLMN{
	mccmnc.MustParse("23410"),
	mccmnc.MustParse("26201"),
	mccmnc.MustParse("20404"),
}

// siteFeeds synthesizes per-site tap-order CDR feeds with the
// federation's presence-exclusivity shape: each device is at exactly
// one site per day, records appended device-major per site (so site
// archives are NOT time-ordered — the tap order compaction exists to
// fix), while each device's own records stay in time order within its
// site. Event times carry seeded jitter so different seeds exercise
// different orders and tie patterns.
func siteFeeds(t *testing.T, seed, devices, days, sites int) [][]cdrs.Record {
	t.Helper()
	if sites > len(sitePLMNs) {
		t.Fatalf("at most %d sites", len(sitePLMNs))
	}
	rng := rand.New(rand.NewSource(int64(seed)))
	a := apn.MustParse("smhp.centricaplc.com")
	feeds := make([][]cdrs.Record, sites)
	for d := 0; d < devices; d++ {
		dev := identity.DeviceID(rng.Uint64())
		offset := time.Duration(rng.Intn(86400)) * time.Second
		for day := 0; day < days; day++ {
			site := (d + day*seed) % sites
			feeds[site] = append(feeds[site], cdrs.Record{
				Device: dev,
				Time:   testStart.Add(time.Duration(day)*24*time.Hour + offset),
				SIM:    testHome, Visited: sitePLMNs[site], Kind: cdrs.KindData,
				RAT: 1, Duration: 30 * time.Second, Bytes: uint64(64 + d), APN: a,
			})
		}
	}
	return feeds
}

// writeSiteStores archives each feed into its own site store and
// returns the input dirs in site order.
func writeSiteStores(t *testing.T, root string, days, segRecords int, feeds [][]cdrs.Record) []string {
	t.Helper()
	dirs := make([]string, len(feeds))
	for s, feed := range feeds {
		dir := filepath.Join(root, fmt.Sprintf("site-%s", sitePLMNs[s].Concat()))
		w, err := NewWriter(dir, Meta{Host: sitePLMNs[s], Start: testStart, Days: days}, segRecords)
		if err != nil {
			t.Fatal(err)
		}
		for i := range feed {
			if err := w.Append(feed[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		dirs[s] = dir
	}
	return dirs
}

// inputReplayReference replays every input store in order into one
// shared builder created with the compacted store's metadata — the
// "replaying the inputs" side of the replay-equivalence contract.
func inputReplayReference(t *testing.T, dirs []string, host mccmnc.PLMN, days int, q Query) *catalog.Catalog {
	t.Helper()
	b := catalog.NewBuilder(host, testStart, days, nil)
	for _, dir := range dirs {
		r, err := Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.ReplayRecords(q, func(rec cdrs.Record) { b.AddRecord(rec) }); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

// Compacting a multi-site federation must produce a time-ordered
// store whose replay is bit-identical to replaying the inputs, at
// every worker count, across seeds — the tentpole determinism
// contract.
func TestCompactMultiSiteReplayIdentical(t *testing.T) {
	const (
		devices = 40
		days    = 5
		sites   = 3
	)
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for seed := 1; seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			root := t.TempDir()
			feeds := siteFeeds(t, seed, devices, days, sites)
			dirs := writeSiteStores(t, root, days, 32, feeds)
			out := filepath.Join(root, "compacted")
			stats, err := Compact(out, dirs, CompactOptions{SegmentRecords: 32})
			if err != nil {
				t.Fatal(err)
			}
			if stats.RecordsOut != int64(devices*days) {
				t.Fatalf("compacted %d records, want %d", stats.RecordsOut, devices*days)
			}

			r, err := Open(out)
			if err != nil {
				t.Fatal(err)
			}
			if rep := r.Verify(); !rep.OK() {
				t.Fatalf("compacted store fails verification:\n%s", rep)
			}
			// Mixed hosts: the merged store has no single observer.
			if r.Manifest().Host != "" {
				t.Fatalf("multi-site compaction kept host %q", r.Manifest().Host)
			}

			// The output stream is sorted by (time, device).
			var prev cdrs.Record
			n := 0
			if _, err := r.ReplayRecords(Query{}, func(rec cdrs.Record) {
				if n > 0 && (rec.Time.Before(prev.Time) ||
					(rec.Time.Equal(prev.Time) && uint64(rec.Device) < uint64(prev.Device))) {
					t.Fatalf("record %d out of order: %v/%x after %v/%x",
						n, rec.Time, rec.Device, prev.Time, prev.Device)
				}
				prev = rec
				n++
			}); err != nil {
				t.Fatal(err)
			}

			want := inputReplayReference(t, dirs, mccmnc.PLMN{}, days, Query{})
			for _, workers := range workerCounts {
				got, _, err := r.Replay(Query{}, workers)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("workers=%d: compacted replay differs from input replay", workers)
				}
			}
		})
	}
}

// The compacted output must be byte-identical at any merge fan-in:
// multi-pass external merges through temp run files reproduce the
// single-pass order exactly.
func TestCompactFanInInvariant(t *testing.T) {
	const days = 5
	root := t.TempDir()
	feeds := siteFeeds(t, 2, 50, days, 3)
	dirs := writeSiteStores(t, root, days, 16, feeds)

	outA := filepath.Join(root, "out-default")
	outB := filepath.Join(root, "out-fanin2")
	statsA, err := Compact(outA, dirs, CompactOptions{SegmentRecords: 16})
	if err != nil {
		t.Fatal(err)
	}
	statsB, err := Compact(outB, dirs, CompactOptions{SegmentRecords: 16, MaxFanIn: 2})
	if err != nil {
		t.Fatal(err)
	}
	if statsB.Passes <= statsA.Passes {
		t.Fatalf("fan-in 2 ran %d passes, default ran %d — fixture must force multi-pass", statsB.Passes, statsA.Passes)
	}

	ra, err := Open(outA)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Open(outB)
	if err != nil {
		t.Fatal(err)
	}
	segsA, segsB := ra.Manifest().Segments, rb.Manifest().Segments
	if !reflect.DeepEqual(segsA, segsB) {
		t.Fatal("fan-in changed the segment index")
	}
	for i := range segsA {
		ba, err := os.ReadFile(filepath.Join(outA, segsA[i].Name))
		if err != nil {
			t.Fatal(err)
		}
		bb, err := os.ReadFile(filepath.Join(outB, segsB[i].Name))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(ba, bb) {
			t.Fatalf("segment %s differs between fan-ins", segsA[i].Name)
		}
	}
}

// Compacting one tap-order store must make day pruning bite: the
// input's segments all span the whole window, the output's segments
// cover tight day ranges — and replay equality holds with the host
// preserved (single input, single observer).
func TestCompactSingleStoreTightensDayPruning(t *testing.T) {
	const days = 6
	root := t.TempDir()
	// Device-major feed: one device's whole window, then the next —
	// the worst case for day pruning.
	var recs []cdrs.Record
	a := apn.MustParse("smhp.centricaplc.com")
	for d := 0; d < 30; d++ {
		dev := identity.DeviceID(0x9000 + uint64(d)*257)
		for day := 0; day < days; day++ {
			recs = append(recs, cdrs.Record{
				Device: dev, Time: testStart.Add(time.Duration(day)*24*time.Hour + time.Duration(d)*time.Minute),
				SIM: testHome, Visited: testHost, Kind: cdrs.KindData, RAT: 1,
				Duration: 10 * time.Second, Bytes: 99, APN: a,
			})
		}
	}
	in := filepath.Join(root, "tap")
	writeStore(t, in, days, 16, recs)
	out := filepath.Join(root, "mediation")
	if _, err := Compact(out, []string{in}, CompactOptions{SegmentRecords: 16}); err != nil {
		t.Fatal(err)
	}

	rIn, err := Open(in)
	if err != nil {
		t.Fatal(err)
	}
	rOut, err := Open(out)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := rOut.Manifest().Host, testHost.Concat(); got != want {
		t.Fatalf("single-input compaction host %q, want %q", got, want)
	}
	q := Query{}.Days(2, 2)
	planIn, planOut := rIn.Plan(q), rOut.Plan(q)
	if planIn.PrunedRange != 0 {
		t.Fatalf("tap-order fixture pruned %d segments — not tap-ordered enough", planIn.PrunedRange)
	}
	if planOut.PrunedRange == 0 {
		t.Fatal("day pruning does not bite on the compacted store")
	}
	if len(planOut.Selected) >= len(planIn.Selected) {
		t.Fatalf("compaction did not shrink the day-query read set: %d vs %d",
			len(planOut.Selected), len(planIn.Selected))
	}

	want := inputReplayReference(t, []string{in}, testHost, days, Query{})
	got, _, err := rOut.Replay(Query{}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("compacted replay differs from input replay")
	}
}

// A query-narrowed compaction extracts exactly the window: equal to
// replaying the inputs with the same query.
func TestCompactFiltered(t *testing.T) {
	const days = 5
	root := t.TempDir()
	feeds := siteFeeds(t, 3, 30, days, 2)
	dirs := writeSiteStores(t, root, days, 16, feeds)
	q := Query{}.Days(1, 3)

	out := filepath.Join(root, "window")
	stats, err := Compact(out, dirs, CompactOptions{SegmentRecords: 16, Query: q})
	if err != nil {
		t.Fatal(err)
	}
	if stats.RecordsOut >= stats.RecordsIn && stats.SegmentsPruned == 0 {
		t.Fatalf("query dropped nothing: %+v", stats)
	}
	r, err := Open(out)
	if err != nil {
		t.Fatal(err)
	}
	want := inputReplayReference(t, dirs, mccmnc.PLMN{}, days, q)
	got, _, err := r.Replay(Query{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("filtered compaction replay differs from filtered input replay")
	}
}

// Compaction refuses mismatched inputs: different observation windows
// cannot merge, and there must be something to merge.
func TestCompactRejectsMismatchedInputs(t *testing.T) {
	root := t.TempDir()
	a := filepath.Join(root, "a")
	writeStore(t, a, 3, 16, feedRecords(4, 3))
	b := filepath.Join(root, "b")
	writeStore(t, b, 4, 16, feedRecords(4, 4))
	if _, err := Compact(filepath.Join(root, "out1"), []string{a, b}, CompactOptions{}); err == nil {
		t.Fatal("window mismatch not rejected")
	}

	if _, err := Compact(filepath.Join(root, "out3"), nil, CompactOptions{}); err == nil {
		t.Fatal("empty input list not rejected")
	}
}

// A failed compaction leaves the destination absent or untouched, never
// a store: the prefix merged before the failure would open and verify
// clean, and roamd would mount it. Corrupt input fails while the runs
// open — in the final pass at the default fan-in (the output writer
// already exists), inside a run-file pass at fan-in 2 (it does not yet,
// and TempDir must come back empty).
func TestCompactFailureLeavesNoStore(t *testing.T) {
	const days = 4
	root := t.TempDir()
	src := filepath.Join(root, "src")
	writeStore(t, src, days, 16, feedRecords(20, days))
	r, err := Open(src)
	if err != nil {
		t.Fatal(err)
	}
	flipBodyByte(t, src, &r.Manifest().Segments[2])

	for _, fanIn := range []int{DefaultCompactFanIn, 2} {
		dst := filepath.Join(root, fmt.Sprintf("out-%d", fanIn))
		tmp := filepath.Join(root, fmt.Sprintf("tmp-%d", fanIn))
		if err := os.Mkdir(tmp, 0o755); err != nil {
			t.Fatal(err)
		}
		_, err := Compact(dst, []string{src}, CompactOptions{SegmentRecords: 16, MaxFanIn: fanIn, TempDir: tmp})
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("fan-in %d: Compact over a corrupt segment returned %v, want ErrCorrupt", fanIn, err)
		}
		if _, err := Open(dst); err == nil {
			t.Fatalf("fan-in %d: failed compaction left a store that opens at %s", fanIn, dst)
		}
		if _, err := os.Stat(dst); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("fan-in %d: failed compaction left the directory it created: %v", fanIn, err)
		}
		if left, err := os.ReadDir(tmp); err != nil || len(left) != 0 {
			t.Fatalf("fan-in %d: TempDir holds %d entries after a failed compaction (%v)", fanIn, len(left), err)
		}
	}
}

// The same invariant when the failure comes mid-merge, with segments
// already sealed at the destination: a directory squatting on the
// second segment's name fails its create. Compact did not make dst, so
// dst and the foreign entry stay; everything Compact wrote goes.
func TestCompactWriteFailureRemovesPartialStore(t *testing.T) {
	const days = 4
	root := t.TempDir()
	src := filepath.Join(root, "src")
	writeStore(t, src, days, 16, feedRecords(20, days))
	dst := filepath.Join(root, "out")
	if err := os.MkdirAll(filepath.Join(dst, "seg-000001.wrseg"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := Compact(dst, []string{src}, CompactOptions{SegmentRecords: 16}); err == nil {
		t.Fatal("Compact succeeded over an uncreatable segment")
	}
	if _, err := Open(dst); err == nil {
		t.Fatal("failed compaction left a partial store that opens")
	}
	left, err := os.ReadDir(dst)
	if err != nil {
		t.Fatalf("failed compaction removed a directory it did not create: %v", err)
	}
	if len(left) != 1 || left[0].Name() != "seg-000001.wrseg" {
		t.Fatalf("destination holds %v after a failed compaction, want only the foreign entry", left)
	}
}

// PlanCompact agrees with what Compact then does, and the dry run
// reads no segment bodies (it must work even when bodies are gone).
func TestPlanCompactMatchesExecution(t *testing.T) {
	const days = 4
	root := t.TempDir()
	feeds := siteFeeds(t, 1, 20, days, 2)
	dirs := writeSiteStores(t, root, days, 16, feeds)

	opts := CompactOptions{SegmentRecords: 16, MaxFanIn: 2}
	plan, err := PlanCompact(dirs, opts)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(root, "out")
	stats, err := Compact(out, dirs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Runs != stats.SegmentsIn {
		t.Fatalf("plan %d runs, compact merged %d segments", plan.Runs, stats.SegmentsIn)
	}
	if plan.Passes != stats.Passes {
		t.Fatalf("plan %d passes, compact ran %d", plan.Passes, stats.Passes)
	}
	if plan.Records != stats.RecordsIn {
		t.Fatalf("plan %d records, compact decoded %d", plan.Records, stats.RecordsIn)
	}
	if plan.Kind != KindCDR || len(plan.Inputs) != 2 {
		t.Fatalf("bad plan: %+v", plan)
	}
}

// An empty compaction (all inputs empty) still yields a valid,
// replayable empty store.
func TestCompactEmptyInputs(t *testing.T) {
	root := t.TempDir()
	a := filepath.Join(root, "a")
	w, err := NewWriter(a, testMeta(3), 16)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(root, "out")
	stats, err := Compact(out, []string{a}, CompactOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.RecordsOut != 0 || stats.SegmentsOut != 0 {
		t.Fatalf("empty compaction produced %+v", stats)
	}
	r, err := Open(out)
	if err != nil {
		t.Fatal(err)
	}
	if rep := r.Verify(); !rep.OK() {
		t.Fatalf("empty compacted store fails verification:\n%s", rep)
	}
}

// storeDigest hashes every file of a store directory — segment files,
// MANIFEST.ckpt and MANIFEST.log — in name order.
func storeDigest(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(h, "%s %d\n", e.Name(), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// mixedAPNRecords is feedRecords with its data records spread over
// three APNs: a plain one, one with an operator suffix, and one
// appended as apn.APN{NetworkID: "Smart.METER"}, which the writer
// renders as is but a decoder parses to "smart.meter" — so its frames
// do not re-encode to themselves, and compaction rewrites them.
func mixedAPNRecords(devices, days int) []cdrs.Record {
	apns := []apn.APN{
		{NetworkID: "Smart.METER"},
		apn.MustParse("smhp.centricaplc.com"),
		apn.MustParse("m2m.telemetry.mnc004.mcc204.gprs"),
	}
	recs := feedRecords(devices, days)
	for i := range recs {
		if recs[i].Kind == cdrs.KindData {
			recs[i].APN = apns[uint64(recs[i].Device)%3]
		}
	}
	return recs
}

// TestCompactDigests pins the bytes of compacted stores — every
// segment file and both manifest files — to digests of the output of
// a compactor that decoded, stable-sorted and re-encoded every record.
// TestCompactFanInInvariant only compares fan-ins with each other;
// these constants hold every fan-in, a day-narrowed query and
// non-canonical input frames to the same bytes.
func TestCompactDigests(t *testing.T) {
	const days = 5
	root := t.TempDir()
	sites := writeSiteStores(t, root, days, 16, siteFeeds(t, 2, 50, days, 3))
	mixed := filepath.Join(root, "mixed")
	writeStore(t, mixed, days, 16, mixedAPNRecords(30, days))

	cases := []struct {
		name   string
		inputs []string
		query  Query
		fanIns []int
		want   string
	}{
		{"sites", sites, Query{}, []int{0, 2, 3},
			"08994b059b5ca40e183ebc3796ae391e124c0c2bb5de02015e46a25d4077dee4"},
		{"sites-days-1-3", sites, Query{}.Days(1, 3), []int{0, 2, 3},
			"96da87872eb22c227e87214a06de039fe83a966e1386547573328ed2aa289d8e"},
		{"mixed-apn", []string{mixed}, Query{}, []int{2, 3, 64},
			"e9ae9221023312cacb363537f6915a0dea915989551841f8907046b04d81792c"},
	}
	for _, c := range cases {
		for _, fanIn := range c.fanIns {
			t.Run(fmt.Sprintf("%s/fanin=%d", c.name, fanIn), func(t *testing.T) {
				out := filepath.Join(root, fmt.Sprintf("out-%s-%d", c.name, fanIn))
				opts := CompactOptions{SegmentRecords: 16, Query: c.query, MaxFanIn: fanIn}
				if _, err := Compact(out, c.inputs, opts); err != nil {
					t.Fatal(err)
				}
				if got := storeDigest(t, out); got != c.want {
					t.Errorf("compacted store digest %s, want %s", got, c.want)
				}
			})
		}
	}
}

// A run whose first frame fails to read still comes back from open and
// must be closed: mergeGroup over a good and a truncated run file
// fails with the truncation and runs done on both.
func TestMergeGroupClosesRunsWhoseOpenFails(t *testing.T) {
	dir := t.TempDir()
	var frames []byte
	for _, rec := range feedRecords(2, 1) {
		var err error
		if frames, err = cdrs.AppendFrame(frames, &rec); err != nil {
			t.Fatal(err)
		}
	}
	good, truncated := filepath.Join(dir, "good"), filepath.Join(dir, "truncated")
	if err := os.WriteFile(good, frames, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(truncated, frames[:10], 0o644); err != nil {
		t.Fatal(err)
	}
	done := map[string]int{}
	var srcs []runSrc
	for _, path := range []string{good, truncated} {
		src := fileRun(path)
		srcs = append(srcs, runSrc{open: func(dec *cdrs.Decoder) (*openRun, error) {
			r, err := src.open(dec)
			if r != nil {
				inner := r.done
				r.done = func() error {
					done[path]++
					return inner()
				}
			}
			return r, err
		}})
	}
	err := mergeGroup(srcs, func([]byte) error { return nil })
	if !errors.Is(err, cdrs.ErrTruncated) {
		t.Fatalf("mergeGroup over a truncated run file returned %v, want cdrs.ErrTruncated", err)
	}
	for _, path := range []string{good, truncated} {
		if done[path] != 1 {
			t.Errorf("%s: done ran %d times, want 1", filepath.Base(path), done[path])
		}
	}
}
