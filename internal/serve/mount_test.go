package serve

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"whereroam/internal/cdrs"
	"whereroam/internal/obs"
	"whereroam/internal/store"
)

// A mount opens its store once and every fill after that replays the
// same Reader: distinct cold keys fired at one instrumented mount at
// the same moment all succeed, share the mount-time Reader (no
// store.Open ran between them) and — run under -race — show that
// nothing is set on a Reader once fills share it.
func TestMountReaderSharedByConcurrentFills(t *testing.T) {
	s := newTestServer(t, Config{Metrics: obs.NewRegistry(), Tracer: obs.NewTracer(32, 0, nil)})
	h := s.Handler()
	site := firstSite(t, s)
	m := s.mounts[site]
	opened := m.reader
	if opened == nil {
		t.Fatal("Mount kept no reader")
	}

	urls := []string{"/v1/sites/" + site + "/stats"}
	for lo := 0; lo < m.info.Days; lo++ {
		for hi := lo; hi < m.info.Days; hi++ {
			urls = append(urls, fmt.Sprintf("/v1/sites/%s/days?lo=%d&hi=%d", site, lo, hi))
		}
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for _, u := range urls {
		wg.Add(1)
		go func(u string) {
			defer wg.Done()
			<-start
			if status, body := testGet(t, h, u); status != http.StatusOK {
				t.Errorf("GET %s: status %d: %s", u, status, body)
			}
		}(u)
	}
	close(start)
	wg.Wait()

	if fills := s.CacheStats().Fills; fills != int64(len(urls)) {
		t.Fatalf("%d fills for %d distinct cold keys", fills, len(urls))
	}
	if m.reader != opened {
		t.Fatal("a fill re-opened a store whose manifest files had not changed")
	}
}

// A kept Reader must not outlive the store it was opened from: the
// next cold fill after the manifest files change answers from the
// store as it is now — byte for byte what a server mounted afresh
// answers — and not from the snapshot the mount held.
func TestMountReopensChangedStore(t *testing.T) {
	// The records and window of one archived site, to rebuild stores
	// from.
	src := testArchive(t)
	sites, err := store.SiteDirs(src)
	if err != nil {
		t.Fatal(err)
	}
	srcDir := store.SiteDir(src, sites[0])
	r, err := store.Open(srcDir)
	if err != nil {
		t.Fatal(err)
	}
	meta := r.Manifest().Meta()
	var recs []cdrs.Record
	if _, err := r.ReplayRecords(store.Query{}, func(rec cdrs.Record) { recs = append(recs, rec) }); err != nil {
		t.Fatal(err)
	}
	wholeWindow := fmt.Sprintf("/v1/sites/x/days?lo=0&hi=%d", meta.Days-1)

	// fresh answers url from a server mounted on dir just now.
	fresh := func(t *testing.T, dir, url string) []byte {
		t.Helper()
		s := New(Config{})
		if err := s.Mount("x", dir); err != nil {
			t.Fatal(err)
		}
		status, body := testGet(t, s.Handler(), url)
		if status != http.StatusOK {
			t.Fatalf("fresh GET %s: status %d: %s", url, status, body)
		}
		return body
	}
	// coldAfter mounts dir, warms the whole-window stats slice, lets
	// change alter the store, and returns the first reply to a key
	// that is still cold.
	coldAfter := func(t *testing.T, dir string, change func()) (stale, got []byte) {
		t.Helper()
		s := New(Config{})
		if err := s.Mount("x", dir); err != nil {
			t.Fatal(err)
		}
		h := s.Handler()
		if status, body := testGet(t, h, "/v1/sites/x/stats"); status != http.StatusOK {
			t.Fatalf("stats before the change: status %d: %s", status, body)
		}
		stale = fresh(t, dir, wholeWindow)
		change()
		status, got := testGet(t, h, wholeWindow)
		if status != http.StatusOK {
			t.Fatalf("cold GET after the change: status %d: %s", status, got)
		}
		return stale, got
	}

	t.Run("live writer seals another segment", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "live")
		w, err := store.NewWriter(dir, meta, 64)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		appendAll := func(recs []cdrs.Record) {
			for i := range recs {
				if err := w.Append(recs[i]); err != nil {
					t.Fatal(err)
				}
			}
		}
		appendAll(recs[:len(recs)/2])
		sealed := w.Segments()
		stale, got := coldAfter(t, dir, func() {
			appendAll(recs[len(recs)/2:])
			if w.Segments() == sealed {
				t.Fatal("the still-open writer sealed nothing more")
			}
		})
		if bytes.Equal(got, stale) {
			t.Error("cold fill after a seal answered from the mount-time snapshot")
		}
		if want := fresh(t, dir, wholeWindow); !bytes.Equal(got, want) {
			t.Errorf("cold fill after a seal:\n%s\nfresh mount:\n%s", got, want)
		}
	})

	t.Run("directory replaced by a compacted store", func(t *testing.T) {
		root := t.TempDir()
		dir, next := filepath.Join(root, "mounted"), filepath.Join(root, "next")
		if _, err := store.Compact(dir, []string{srcDir}, store.CompactOptions{}); err != nil {
			t.Fatal(err)
		}
		// The replacement keeps day 0 only, so its answers differ.
		if _, err := store.Compact(next, []string{srcDir}, store.CompactOptions{Query: store.Query{}.Days(0, 0)}); err != nil {
			t.Fatal(err)
		}
		stale, got := coldAfter(t, dir, func() {
			if err := os.RemoveAll(dir); err != nil {
				t.Fatal(err)
			}
			if err := os.Rename(next, dir); err != nil {
				t.Fatal(err)
			}
		})
		if bytes.Equal(got, stale) {
			t.Error("cold fill after the swap answered from the mount-time snapshot")
		}
		if want := fresh(t, dir, wholeWindow); !bytes.Equal(got, want) {
			t.Errorf("cold fill after the swap:\n%s\nfresh mount:\n%s", got, want)
		}
	})
}
