package store

import (
	"errors"
	"reflect"
	"sync"
	"testing"
)

// TestReplaySnapshotDuringConcurrentAppend pins the snapshot
// invariant the serving layer depends on: a Reader opened while a
// Writer keeps appending to the same directory sees exactly
// the segments sealed at Open time, replays them bit-identically on
// every call, and never observes later seals.
func TestReplaySnapshotDuringConcurrentAppend(t *testing.T) {
	const days = 6
	recs := feedRecords(48, days)
	dir := t.TempDir()

	w, err := NewWriter(dir, testMeta(days), 64)
	if err != nil {
		t.Fatal(err)
	}
	half := len(recs) / 2
	for i := 0; i < half; i++ {
		if err := w.Append(recs[i]); err != nil {
			t.Fatal(err)
		}
	}

	// Snapshot the half-written store. Its manifest covers a sealed
	// prefix of the appended records.
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	sealed := int(r.Manifest().TotalRecords)
	if sealed == 0 || sealed > half {
		t.Fatalf("snapshot covers %d records, want a non-empty prefix of %d", sealed, half)
	}
	want := buildCatalog(days, recs[:sealed], nil)

	// Keep appending (and sealing) behind the snapshot's back while
	// replaying it from several goroutines; every replay must
	// reproduce the sealed-prefix catalog exactly.
	var wg sync.WaitGroup
	wg.Add(1)
	appendErr := make(chan error, 1)
	go func() {
		defer wg.Done()
		for i := half; i < len(recs); i++ {
			if err := w.Append(recs[i]); err != nil {
				appendErr <- err
				return
			}
		}
		appendErr <- nil
	}()
	const readers = 4
	results := make([]*ReplayStats, readers)
	errs := make([]error, readers)
	wg.Add(readers)
	for g := 0; g < readers; g++ {
		go func(g int) {
			defer wg.Done()
			cat, stats, err := r.Replay(Query{}, 1+g%3)
			if err != nil {
				errs[g] = err
				return
			}
			if !reflect.DeepEqual(want.Records, cat.Records) {
				errs[g] = errors.New("replay diverged from sealed-prefix catalog")
				return
			}
			results[g] = stats
		}(g)
	}
	wg.Wait()
	if err := <-appendErr; err != nil {
		t.Fatal(err)
	}
	for g, err := range errs {
		if err != nil {
			t.Fatalf("reader %d: %v", g, err)
		}
	}
	for g := 1; g < readers; g++ {
		if results[g].RecordsKept != results[0].RecordsKept {
			t.Fatalf("reader %d kept %d records, reader 0 kept %d",
				g, results[g].RecordsKept, results[0].RecordsKept)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// After the writer closes, a fresh Open sees everything.
	r2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cat, _, err := r2.Replay(Query{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if full := buildCatalog(days, recs, nil); !reflect.DeepEqual(full.Records, cat.Records) {
		t.Fatal("post-close replay does not match the full feed")
	}
}

// TestOpenTornDuringLiveWriter pins Open's listing-before-manifest
// ordering: fresh Opens racing a live writer may see at most the one
// in-progress segment as torn, never a freshly sealed segment.
func TestOpenTornDuringLiveWriter(t *testing.T) {
	const days = 4
	recs := feedRecords(64, days)
	dir := t.TempDir()

	w, err := NewWriter(dir, testMeta(days), 16)
	if err != nil {
		t.Fatal(err)
	}
	// Seal the first segment so Open always finds a manifest.
	for i := 0; i < 16; i++ {
		if err := w.Append(recs[i]); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	openErr := make(chan error, 1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				openErr <- nil
				return
			default:
			}
			r, err := Open(dir)
			if err != nil {
				openErr <- err
				return
			}
			if torn := r.Torn(); len(torn) > 1 {
				openErr <- errors.New("live store reported >1 torn segment: " + torn[0] + " " + torn[1])
				return
			}
		}
	}()
	for i := 16; i < len(recs); i++ {
		if err := w.Append(recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if err := <-openErr; err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if torn := r.Torn(); len(torn) != 0 {
		t.Fatalf("closed store reports torn segments: %v", torn)
	}
}

// TestOpenRejectsEscapingSegmentName pins the manifest hardening: a
// crafted manifest whose segment name points outside the store
// directory must fail Open with ErrCorrupt instead of reading the
// named path.
func TestOpenRejectsEscapingSegmentName(t *testing.T) {
	dir := t.TempDir()
	writeStore(t, dir, 3, 64, feedRecords(8, 3))

	man := reloadManifest(t, dir)
	for _, evil := range []string{"../seg-000000.wrseg", "sub/seg-000000.wrseg", "MANIFEST.json", ""} {
		man.Segments[0].Name = evil
		rewriteManifest(t, dir, man)
		if _, err := Open(dir); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("Open with segment name %q: got %v, want ErrCorrupt", evil, err)
		}
	}
}
