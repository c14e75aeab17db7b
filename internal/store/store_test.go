package store

import (
	"errors"
	"hash/crc32"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"whereroam/internal/apn"
	"whereroam/internal/catalog"
	"whereroam/internal/cdrs"
	"whereroam/internal/identity"
	"whereroam/internal/ingest"
	"whereroam/internal/mccmnc"
)

var (
	testHost  = mccmnc.MustParse("23410")
	testHome  = mccmnc.MustParse("20404")
	testStart = time.Date(2019, 10, 1, 0, 0, 0, 0, time.UTC)
)

func testMeta(days int) Meta { return Meta{Host: testHost, Start: testStart, Days: days} }

// feedRecords synthesizes a deterministic time-ordered CDR feed: one
// data and one voice record per (device, day), devices cycling
// through a few visited networks.
func feedRecords(devices, days int) []cdrs.Record {
	a := apn.MustParse("smhp.centricaplc.com")
	visited := []mccmnc.PLMN{testHost, mccmnc.MustParse("26201")}
	var out []cdrs.Record
	for day := 0; day < days; day++ {
		base := testStart.Add(time.Duration(day) * 24 * time.Hour)
		for d := 0; d < devices; d++ {
			dev := identity.DeviceID(0x1000 + uint64(d)*17)
			v := visited[d%len(visited)]
			out = append(out, cdrs.Record{
				Device: dev, Time: base.Add(time.Duration(d) * time.Second),
				SIM: testHome, Visited: v, Kind: cdrs.KindData, RAT: 1,
				Duration: 45 * time.Second, Bytes: uint64(100 + d), APN: a,
			})
			out = append(out, cdrs.Record{
				Device: dev, Time: base.Add(time.Duration(d)*time.Second + 12*time.Hour),
				SIM: testHome, Visited: v, Kind: cdrs.KindVoice, RAT: 1,
				Duration: time.Duration(10+d%50) * time.Second,
			})
		}
	}
	return out
}

// writeStore archives recs into a fresh store under dir.
func writeStore(t *testing.T, dir string, days, segRecords int, recs []cdrs.Record) {
	t.Helper()
	w, err := NewWriter(dir, testMeta(days), segRecords)
	if err != nil {
		t.Fatal(err)
	}
	for i := range recs {
		if err := w.Append(recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// reloadManifest materializes a store's manifest off disk for
// tamper-style tests.
func reloadManifest(t *testing.T, dir string) Manifest {
	t.Helper()
	man, _, err := loadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	return man
}

// rewriteManifest publishes man as a v2 checkpoint covering the whole
// MANIFEST.log, so a following Open materializes exactly man — the
// tamper hook for tests that lie in the manifest index.
func rewriteManifest(t *testing.T, dir string, man Manifest) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, ManifestLogName))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		t.Fatal(err)
	}
	entries, _ := decodeLogEntries(raw)
	man.Version = manifestVersionV2
	man.LogEntries = len(entries)
	if err := writeCheckpoint(dir, &man); err != nil {
		t.Fatal(err)
	}
}

// buildCatalog aggregates records serially — the live-build reference
// replay must match bit for bit.
func buildCatalog(days int, recs []cdrs.Record, keep func(*cdrs.Record) bool) *catalog.Catalog {
	b := catalog.NewBuilder(testHost, testStart, days, nil)
	for i := range recs {
		if keep == nil || keep(&recs[i]) {
			b.AddRecord(recs[i])
		}
	}
	return b.Build()
}

func TestWriteReplayRoundTrip(t *testing.T) {
	const days = 6
	recs := feedRecords(40, days)
	dir := t.TempDir()
	writeStore(t, dir, days, 64, recs)

	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	man := r.Manifest()
	if man.Kind != KindCDR || man.TotalRecords != int64(len(recs)) {
		t.Fatalf("manifest kind=%q total=%d, want cdr/%d", man.Kind, man.TotalRecords, len(recs))
	}
	if len(man.Segments) < 3 {
		t.Fatalf("expected several segments, got %d", len(man.Segments))
	}
	if rep := r.Verify(); !rep.OK() {
		t.Fatalf("fresh store fails verification:\n%s", rep)
	}

	// Sequential replay reproduces the archived stream byte for byte.
	var got []cdrs.Record
	stats, err := r.ReplayRecords(Query{}, func(rec cdrs.Record) { got = append(got, rec) })
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recs, got) {
		t.Fatal("sequential replay differs from the archived feed")
	}
	if stats.RecordsRead != int64(len(recs)) || stats.RecordsKept != stats.RecordsRead {
		t.Fatalf("stats read/kept = %d/%d, want %d", stats.RecordsRead, stats.RecordsKept, len(recs))
	}
	if stats.SegmentsPruned != 0 || stats.SegmentsRead != len(man.Segments) {
		t.Fatalf("unfiltered replay pruned %d / read %d of %d segments",
			stats.SegmentsPruned, stats.SegmentsRead, len(man.Segments))
	}

	// Catalog replay matches a serial live build at every worker count.
	live := buildCatalog(days, recs, nil)
	for _, workers := range []int{1, 3, 0} {
		cat, _, err := r.Replay(Query{}, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(live.Records, cat.Records) {
			t.Fatalf("workers=%d: replayed catalog differs from the live build", workers)
		}
		if cat.Host != testHost || cat.Days != days {
			t.Fatalf("workers=%d: replayed catalog window %v/%d", workers, cat.Host, cat.Days)
		}
	}

	// The ingester bridge builds the same catalog.
	sb := catalog.NewShardedBuilder(testHost, testStart, days, nil, 4)
	in := ingest.NewCatalogIngester(sb, 0)
	if _, err := r.ReplayRecords(Query{}, in.OfferRecord); err != nil {
		t.Fatal(err)
	}
	if cat := in.Build(2); !reflect.DeepEqual(live.Records, cat.Records) {
		t.Fatal("ReplayRecords-fed ingester catalog differs from the live build")
	}
}

// A record less than a day before the window start is outside the
// window for the replay as for the live build, although dayOf
// truncates it to day 0: both drop it, replay counts it apart, and a
// day-0 filter keeps the same catalog.
func TestReplayDropsPreWindowRecordsLikeLiveBuild(t *testing.T) {
	const days = 3
	var recs []cdrs.Record
	for i, off := range []time.Duration{-25 * time.Hour, -time.Hour, -time.Nanosecond} {
		for _, dev := range []identity.DeviceID{0x77, identity.DeviceID(0x80 + i)} {
			recs = append(recs, cdrs.Record{Device: dev, Time: testStart.Add(off), SIM: testHome,
				Visited: testHost, Kind: cdrs.KindData, RAT: 1, Bytes: 1000, APN: apn.MustParse("pre.window")})
		}
	}
	recs = append(recs, feedRecords(5, days)...)
	recs = append(recs, cdrs.Record{Device: 0x77, Time: testStart.Add(time.Minute), SIM: testHome,
		Visited: testHost, Kind: cdrs.KindVoice, RAT: 1, Duration: time.Second})
	dir := t.TempDir()
	writeStore(t, dir, days, 4, recs)
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	live := buildCatalog(days, recs, nil)
	for _, rec := range live.Records {
		for _, a := range rec.APNs {
			if a.NetworkID == "pre.window" {
				t.Fatalf("the live build kept a pre-window record: %+v", rec)
			}
		}
	}
	for _, q := range []Query{{}, Query{}.Days(0, 0)} {
		cat, stats, err := r.Replay(q, 2)
		if err != nil {
			t.Fatal(err)
		}
		want := live.Records
		if q != (Query{}) {
			want = buildCatalog(days, recs, func(rec *cdrs.Record) bool { return rec.Time.Sub(testStart) < 24*time.Hour }).Records
		}
		if !reflect.DeepEqual(want, cat.Records) {
			t.Fatalf("query %+v: replay differs from the live build:\n got %+v\nwant %+v", q, cat.Records, want)
		}
		if stats.RecordsOutsideWindow < 4 {
			t.Fatalf("query %+v: replay counted %d records outside the window, want at least the 4 less than a day early", q, stats.RecordsOutsideWindow)
		}
	}
}

// A time-ordered feed gives day-correlated segments, so a day filter
// must skip whole segments — reading provably fewer bytes — while
// producing exactly the day-sliced catalog.
func TestPrunedReplayDayRange(t *testing.T) {
	const days = 8
	recs := feedRecords(30, days)
	dir := t.TempDir()
	writeStore(t, dir, days, 50, recs)
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	_, full, err := r.Replay(Query{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	f := Query{}.Days(3, 4)
	cat, pruned, err := r.Replay(f, 2)
	if err != nil {
		t.Fatal(err)
	}
	if pruned.SegmentsPruned == 0 {
		t.Fatal("day filter over a time-ordered archive pruned no segments")
	}
	if pruned.BytesRead >= full.BytesRead {
		t.Fatalf("pruned replay read %d bytes, full read %d", pruned.BytesRead, full.BytesRead)
	}
	want := buildCatalog(days, recs, func(rec *cdrs.Record) bool {
		day := int(rec.Time.Sub(testStart) / (24 * time.Hour))
		return day >= 3 && day <= 4
	})
	if !reflect.DeepEqual(want.Records, cat.Records) {
		t.Fatal("day-pruned replay differs from the day-sliced live build")
	}
}

// A device-clustered feed prunes on the device-hash index the same
// way.
func TestPrunedReplayDeviceRange(t *testing.T) {
	const days = 3
	var recs []cdrs.Record
	for d := 0; d < 60; d++ {
		dev := identity.DeviceID(uint64(d) << 32)
		for day := 0; day < days; day++ {
			recs = append(recs, cdrs.Record{
				Device: dev, Time: testStart.Add(time.Duration(day)*24*time.Hour + time.Duration(d)*time.Minute),
				SIM: testHome, Visited: testHost, Kind: cdrs.KindData, RAT: 1,
				Duration: 30 * time.Second, Bytes: 64,
			})
		}
	}
	// Cluster by device so segment device ranges are narrow.
	dir := t.TempDir()
	writeStore(t, dir, days, 9, recs)
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := identity.DeviceID(uint64(10)<<32), identity.DeviceID(uint64(20)<<32)
	cat, stats, err := r.Replay(Query{}.Devices(lo, hi), 2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SegmentsPruned == 0 {
		t.Fatal("device filter over a device-clustered archive pruned no segments")
	}
	want := buildCatalog(days, recs, func(rec *cdrs.Record) bool {
		return rec.Device >= lo && rec.Device <= hi
	})
	if !reflect.DeepEqual(want.Records, cat.Records) {
		t.Fatal("device-pruned replay differs from the device-sliced live build")
	}
}

// Visited-network pruning skips segments whose complete footer set
// lacks the host.
func TestPrunedReplayVisitedHost(t *testing.T) {
	const days = 2
	other := mccmnc.MustParse("26201")
	var recs []cdrs.Record
	for d := 0; d < 40; d++ {
		v := testHost
		if d >= 20 {
			v = other
		}
		recs = append(recs, cdrs.Record{
			Device: identity.DeviceID(100 + uint64(d)), Time: testStart.Add(time.Duration(d) * time.Minute),
			SIM: testHome, Visited: v, Kind: cdrs.KindData, RAT: 1,
			Duration: 30 * time.Second, Bytes: 1,
		})
	}
	dir := t.TempDir()
	writeStore(t, dir, days, 10, recs)
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cat, stats, err := r.Replay(Query{}.VisitedHost(other), 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SegmentsPruned == 0 {
		t.Fatal("visited filter pruned no segments")
	}
	want := buildCatalog(days, recs, func(rec *cdrs.Record) bool { return rec.Visited == other })
	if !reflect.DeepEqual(want.Records, cat.Records) {
		t.Fatal("visited-pruned replay differs from the sliced live build")
	}
}

// A crash mid-write leaves a segment file the manifest never sealed:
// verification must report it torn and replay must skip it with a
// report while every sealed segment still replays.
func TestTornFinalSegment(t *testing.T) {
	const days = 4
	recs := feedRecords(20, days)
	dir := t.TempDir()
	writeStore(t, dir, days, 32, recs)

	// Simulate the crash: a partial next segment, never sealed.
	torn := filepath.Join(dir, "seg-999999.wrseg")
	if err := os.WriteFile(torn, []byte("WRDR\x01\x00partial-record-bytes"), 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Torn(); len(got) != 1 || got[0] != "seg-999999.wrseg" {
		t.Fatalf("torn = %v, want the unsealed segment", got)
	}
	rep := r.Verify()
	if rep.OK() || len(rep.Torn) != 1 || len(rep.Corrupt) != 0 {
		t.Fatalf("verify should report exactly the torn file:\n%s", rep)
	}

	cat, stats, err := r.Replay(Query{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.SegmentsTorn != 1 {
		t.Fatalf("replay reported %d torn segments, want 1", stats.SegmentsTorn)
	}
	live := buildCatalog(days, recs, nil)
	if !reflect.DeepEqual(live.Records, cat.Records) {
		t.Fatal("replay over a store with a torn tail lost sealed records")
	}
}

// flipBodyByte flips one bit in the middle of a sealed segment's body,
// in place on disk.
func flipBodyByte(t *testing.T, dir string, si *SegmentInfo) {
	t.Helper()
	path := filepath.Join(dir, si.Name)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[si.BodyBytes/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// A bit flip in a sealed segment body must fail that segment's CRC:
// verification pins the segment and replay refuses the store.
func TestBitFlipFailsCRC(t *testing.T) {
	const days = 3
	recs := feedRecords(15, days)
	dir := t.TempDir()
	writeStore(t, dir, days, 24, recs)

	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	victim := r.Manifest().Segments[1]
	flipBodyByte(t, dir, &victim)

	rep := r.Verify()
	if rep.OK() || len(rep.Corrupt) != 1 || rep.Corrupt[0].Name != victim.Name {
		t.Fatalf("verify should pin the flipped segment:\n%s", rep)
	}
	if _, _, err := r.Replay(Query{}, 2); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("replay of a corrupt store returned %v, want ErrCorrupt", err)
	}
	// Pruning the corrupt segment away replays the rest cleanly.
	f := Query{}.Days(0, victim.MinDay-1)
	if _, _, err := r.Replay(f, 1); err != nil {
		t.Fatalf("replay pruned past the corrupt segment still failed: %v", err)
	}
}

// A sealed segment that no longer matches its manifest entry is
// reported as corrupt, by name, from every read path — and a body that
// fails its CRC (or its size) is rejected before a single record of it
// reaches a sink. The two failures only a decode can find (a bad
// record, a wrong count) need the CRC to hold, so those cases re-seal
// the tampered body in the manifest.
func TestCorruptSegmentDeliversNothing(t *testing.T) {
	const days, victimIdx = 3, 1
	recs := feedRecords(15, days)
	for _, tc := range []struct {
		name string
		// tamper edits the victim's file bytes and manifest entry.
		tamper func(data []byte, si *SegmentInfo) []byte
		// delivered is how many of the victim's records a sequential
		// replay hands on before it fails.
		delivered func(si *SegmentInfo) int
	}{
		{"flipped body byte", func(data []byte, si *SegmentInfo) []byte {
			data[si.BodyBytes/2] ^= 0x40
			return data
		}, nil},
		{"short file", func(data []byte, si *SegmentInfo) []byte {
			return data[:len(data)-7]
		}, nil},
		{"oversize length prefix", func(data []byte, si *SegmentInfo) []byte {
			data[6], data[7] = 0xff, 0xff // first record's length prefix, after the 6-byte stream header
			si.BodyCRC = crc32.Checksum(data[:si.BodyBytes], crcTable)
			return data
		}, nil},
		{"body length past the file", func(data []byte, si *SegmentInfo) []byte {
			si.BodyBytes = math.MaxInt64 // must be refused, not allocated
			return data
		}, nil},
		{"wrong record count", func(data []byte, si *SegmentInfo) []byte {
			si.Records++
			return data
		}, func(si *SegmentInfo) int { return si.Records - 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeStore(t, dir, days, 24, recs)
			man := reloadManifest(t, dir)
			victim := &man.Segments[victimIdx]
			path := filepath.Join(dir, victim.Name)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.tamper(data, victim), 0o644); err != nil {
				t.Fatal(err)
			}
			rewriteManifest(t, dir, man)
			r, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			isVictim := func(err error) bool {
				return errors.Is(err, ErrCorrupt) && strings.Contains(err.Error(), victim.Name)
			}

			if _, _, err := r.Replay(Query{}, 2); !isVictim(err) {
				t.Errorf("Replay = %v, want ErrCorrupt naming %s", err, victim.Name)
			}
			want := 0
			for i := 0; i < victimIdx; i++ {
				want += man.Segments[i].Records
			}
			if tc.delivered != nil {
				want += tc.delivered(victim)
			}
			got := 0
			if _, err := r.ReplayRecords(Query{}, func(cdrs.Record) { got++ }); !isVictim(err) {
				t.Errorf("ReplayRecords = %v, want ErrCorrupt naming %s", err, victim.Name)
			}
			if got != want {
				t.Errorf("ReplayRecords delivered %d records, want %d: the segments before %s and nothing else", got, want, victim.Name)
			}
			if rep := r.Verify(); len(rep.Corrupt) != 1 || rep.Corrupt[0].Name != victim.Name {
				t.Errorf("Verify should pin exactly %s as corrupt:\n%s", victim.Name, rep)
			}
		})
	}
}

// An empty store (a feed that produced nothing) replays to an empty
// catalog, not an error.
func TestEmptyStore(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(dir, testMeta(5), 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep := r.Verify(); !rep.OK() || rep.Segments != 0 {
		t.Fatalf("empty store verification:\n%s", rep)
	}
	cat, stats, err := r.Replay(Query{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(cat.Records) != 0 || stats.RecordsRead != 0 {
		t.Fatalf("empty store replayed %d records / %d catalog rows", stats.RecordsRead, len(cat.Records))
	}
	if cat.Host != testHost || cat.Days != 5 {
		t.Fatalf("empty replayed catalog window %v/%d", cat.Host, cat.Days)
	}
}

// A writer refuses to open over an existing store rather than
// clobbering it.
func TestWriterRefusesExistingStore(t *testing.T) {
	dir := t.TempDir()
	writeStore(t, dir, 2, 0, feedRecords(2, 2))
	if _, err := NewWriter(dir, testMeta(2), 0); err == nil {
		t.Fatal("NewWriter over an existing store did not fail")
	}
}

// Concurrent producers (the shape of the emission-shard fanout tap)
// must archive every record exactly once, and the replayed catalog
// must match a serial build — per-producer order is per-device order.
func TestConcurrentAppendsReplayDeterministic(t *testing.T) {
	const days = 4
	perDev := feedRecords(24, days)
	// Partition the feed by device: one producer per device group.
	byDev := map[identity.DeviceID][]cdrs.Record{}
	for _, rec := range perDev {
		byDev[rec.Device] = append(byDev[rec.Device], rec)
	}
	dir := t.TempDir()
	w, err := NewWriter(dir, testMeta(days), 16)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, seq := range byDev {
		wg.Add(1)
		go func(seq []cdrs.Record) {
			defer wg.Done()
			for i := range seq {
				if err := w.Append(seq[i]); err != nil {
					t.Error(err)
					return
				}
			}
		}(seq)
	}
	wg.Wait()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	live := buildCatalog(days, perDev, nil)
	for _, workers := range []int{1, 4} {
		cat, _, err := r.Replay(Query{}, workers)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(live.Records, cat.Records) {
			t.Fatalf("workers=%d: concurrently archived feed replays differently from the live build", workers)
		}
	}
}

// What the two-plane indirection cost, as an exact counter: appending a
// record whose device, visited network and APN the open segment has
// already seen allocates nothing. Behind an encoder interface and an
// index-extraction func field the by-value record escaped — one heap
// object per appended record.
func TestAppendSteadyStateAllocatesNothing(t *testing.T) {
	w, err := NewWriter(t.TempDir(), testMeta(1), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	rec := feedRecords(1, 1)[0]
	if err := w.Append(rec); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(500, func() {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Append allocates %.0f objects per record, want 0", allocs)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// A straggler producer offering after a clean Close gets ErrClosed
// but must not retroactively poison the writer: Err() stays nil and a
// repeated Close still reports success for the sealed archive.
func TestAppendAfterCloseDoesNotPoison(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(dir, testMeta(2), 8)
	if err != nil {
		t.Fatal(err)
	}
	recs := feedRecords(3, 2)
	for i := range recs {
		if err := w.Append(recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(recs[0]); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close returned %v, want ErrClosed", err)
	}
	if err := w.Err(); err != nil {
		t.Fatalf("straggler append poisoned the writer: Err() = %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("repeated close after straggler append returned %v", err)
	}
	if r, err := Open(dir); err != nil {
		t.Fatal(err)
	} else if rep := r.Verify(); !rep.OK() {
		t.Fatalf("archive no longer verifies:\n%s", rep)
	}
}

// Verification must cross-check every index field pruning trusts: a
// manifest whose visited set was tampered with (while body and CRC
// stay intact) must fail verify, not silently mis-prune later.
func TestVerifyCatchesManifestIndexTamper(t *testing.T) {
	const days = 2
	recs := feedRecords(10, days)
	dir := t.TempDir()
	writeStore(t, dir, days, 8, recs)

	man := reloadManifest(t, dir)
	man.Segments[0].Visited = man.Segments[0].Visited[:1]
	rewriteManifest(t, dir, man)

	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep := r.Verify()
	if rep.OK() || len(rep.Corrupt) == 0 || rep.Corrupt[0].Name != man.Segments[0].Name {
		t.Fatalf("tampered manifest visited set passed verification:\n%s", rep)
	}
}

// Records outside the store's declared day window never reach the
// catalog builder; the stats must say so instead of counting them
// kept.
func TestReplayCountsOutOfWindowRecords(t *testing.T) {
	dir := t.TempDir()
	w, err := NewWriter(dir, testMeta(2), 8) // window: days 0..1
	if err != nil {
		t.Fatal(err)
	}
	recs := feedRecords(4, 4) // emits days 0..3
	for i := range recs {
		if err := w.Append(recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cat, stats, err := r.Replay(Query{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if stats.RecordsOutsideWindow != int64(len(recs))/2 {
		t.Fatalf("RecordsOutsideWindow = %d, want %d", stats.RecordsOutsideWindow, len(recs)/2)
	}
	if stats.RecordsKept != int64(len(recs))/2 {
		t.Fatalf("RecordsKept = %d, want %d", stats.RecordsKept, len(recs)/2)
	}
	want := buildCatalog(2, recs, nil)
	if !reflect.DeepEqual(want.Records, cat.Records) {
		t.Fatal("windowed replay differs from the windowed live build")
	}
}

// A catalog replay costs well under one allocation per record: each
// worker decodes its whole range through one decoder and one builder,
// and the builder takes its device-days from chunks rather than the
// heap one at a time. A device lookup drops almost every record it
// reads on the wire frame, so it allocates a small constant per replay
// and nothing per dropped record.
func TestReplayAllocsPerRecord(t *testing.T) {
	const days = 6
	recs := feedRecords(300, days)
	dir := t.TempDir()
	writeStore(t, dir, days, 256, recs)
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		allocs := testing.AllocsPerRun(5, func() {
			if _, _, err := r.Replay(Query{}, workers); err != nil {
				t.Fatal(err)
			}
		})
		if perRecord := allocs / float64(len(recs)); perRecord >= 0.6 {
			t.Errorf("workers=%d: replay allocates %.2f objects per record, want < 0.6", workers, perRecord)
		} else {
			t.Logf("workers=%d: %.3f allocs per record", workers, perRecord)
		}
	}
	q := Query{}.Device(recs[0].Device)
	var stats *ReplayStats
	allocs := testing.AllocsPerRun(5, func() {
		var err error
		if _, stats, err = r.Replay(q, 1); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("device lookup: %.0f allocs, %d records read, %d kept", allocs, stats.RecordsRead, stats.RecordsKept)
	if perRecord := allocs / float64(stats.RecordsRead); perRecord >= 0.1 {
		t.Errorf("device lookup allocates %.0f objects over %d records read, want < 0.1 per record", allocs, stats.RecordsRead)
	}
}
