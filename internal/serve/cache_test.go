package serve

import (
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestCacheSingleFlight pins the coalescing contract: a thundering
// herd of identical cold requests runs the fill exactly once, every
// caller receives the same *slice, and the waiters are counted.
func TestCacheSingleFlight(t *testing.T) {
	c := newSliceCache(0)
	const herd = 32
	var fills atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})
	want := &slice{cost: 10}

	var wg sync.WaitGroup
	got := make([]*slice, herd)
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := c.get("k", func() (*slice, error) {
				if fills.Add(1) == 1 {
					close(started)
				}
				<-release // hold the fill open so the herd piles up
				return want, nil
			})
			if err != nil {
				t.Errorf("get: %v", err)
			}
			got[i] = s
		}(i)
	}
	// Wait until one fill is in flight, then let it finish. The
	// remaining goroutines either wait on the flight or hit the cache
	// after insertion — both must return the identical slice.
	<-started
	close(release)
	wg.Wait()

	if n := fills.Load(); n != 1 {
		t.Fatalf("fill ran %d times for one key, want exactly 1", n)
	}
	for i, s := range got {
		if s != want {
			t.Fatalf("caller %d got a different slice pointer", i)
		}
	}
	st := c.stats()
	if st.Fills != 1 || st.Misses != 1 {
		t.Fatalf("counters after herd: %+v, want Fills=1 Misses=1", st)
	}
	if st.Hits+st.Waits != herd-1 {
		t.Fatalf("counters after herd: %+v, want Hits+Waits=%d", st, herd-1)
	}
}

// TestCacheErrorNotCached pins that fill errors propagate to every
// coalesced waiter but are never cached: the next request retries the
// fill and can succeed.
func TestCacheErrorNotCached(t *testing.T) {
	c := newSliceCache(0)
	boom := errors.New("store gone")
	if _, err := c.get("k", func() (*slice, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("first get: err=%v, want %v", err, boom)
	}
	if st := c.stats(); st.Entries != 0 {
		t.Fatalf("error was cached: %+v", st)
	}
	want := &slice{cost: 1}
	s, err := c.get("k", func() (*slice, error) { return want, nil })
	if err != nil || s != want {
		t.Fatalf("retry after error: s=%p err=%v", s, err)
	}
	if st := c.stats(); st.Fills != 2 || st.Hits != 0 {
		t.Fatalf("counters after retry: %+v, want Fills=2 Hits=0", st)
	}
}

// TestCacheFillPanicReleasesFlight pins the panic path: the panic
// surfaces on the filling caller, a caller already waiting on that
// flight gets an error instead of blocking for ever, nothing is
// cached, and the next request for the key runs a fresh fill.
func TestCacheFillPanicReleasesFlight(t *testing.T) {
	c := newSliceCache(0)
	release := make(chan struct{})

	fillerPanic := make(chan any, 1)
	go func() {
		defer func() { fillerPanic <- recover() }()
		c.get("k", func() (*slice, error) {
			<-release // hold the flight open until the waiter has joined it
			panic("decode blew up")
		})
	}()
	for c.stats().Fills == 0 {
		runtime.Gosched()
	}
	waiterErr := make(chan error, 1)
	go func() {
		_, err := c.get("k", func() (*slice, error) {
			t.Error("waiter ran its own fill while one was in flight")
			return nil, nil
		})
		waiterErr <- err
	}()
	for c.stats().Waits == 0 {
		runtime.Gosched()
	}
	close(release)

	if p := <-fillerPanic; p != "decode blew up" {
		t.Fatalf("filling caller recovered %v, want the fill's own panic value", p)
	}
	if err := <-waiterErr; err == nil {
		t.Fatal("waiter on a panicked fill got a nil error")
	}
	if st := c.stats(); st.Entries != 0 {
		t.Fatalf("panicked fill was cached: %+v", st)
	}

	want := &slice{cost: 1}
	s, err := c.get("k", func() (*slice, error) { return want, nil })
	if err != nil || s != want {
		t.Fatalf("request after the panic: s=%p err=%v, want a fresh fill", s, err)
	}
	if st := c.stats(); st.Fills != 2 || st.Waits != 1 || st.Entries != 1 {
		t.Fatalf("counters after recovery: %+v, want Fills=2 Waits=1 Entries=1", st)
	}
}

// TestCacheEviction pins the LRU accounting: the tail falls out when
// the bound is exceeded, recently-used entries survive, and the
// newest entry is never evicted even when it alone exceeds the bound.
func TestCacheEviction(t *testing.T) {
	c := newSliceCache(100)
	mk := func(key string, cost int64) {
		t.Helper()
		if _, err := c.get(key, func() (*slice, error) { return &slice{cost: cost}, nil }); err != nil {
			t.Fatal(err)
		}
	}
	mk("a", 40)
	mk("b", 40)
	// Touch a so b is the LRU tail.
	if _, err := c.get("a", func() (*slice, error) { t.Fatal("a must be cached"); return nil, nil }); err != nil {
		t.Fatal(err)
	}
	mk("c", 40) // 120 > 100: evicts b, keeps a (recently used) and c
	st := c.stats()
	if st.Entries != 2 || st.Bytes != 80 || st.Evictions != 1 {
		t.Fatalf("after eviction: %+v, want Entries=2 Bytes=80 Evictions=1", st)
	}
	if _, err := c.get("b", func() (*slice, error) { return &slice{cost: 1}, nil }); err != nil {
		t.Fatal(err)
	}
	if st := c.stats(); st.Misses != 4 {
		t.Fatalf("b survived eviction: %+v", st)
	}

	// An oversized entry still gets inserted (its waiters need it) and
	// everything older is evicted around it.
	mk("huge", 500)
	st = c.stats()
	if st.Entries != 1 || st.Bytes != 500 {
		t.Fatalf("after oversized insert: %+v, want Entries=1 Bytes=500", st)
	}
	// The next insert pushes the oversized tail out.
	mk("after", 10)
	st = c.stats()
	if st.Entries != 1 || st.Bytes != 10 {
		t.Fatalf("after oversized eviction: %+v, want Entries=1 Bytes=10", st)
	}
}

// TestServerConcurrentRequests is the serving-layer race test: many
// goroutines hammer an overlapping URL set against one server. Every
// response for a URL must be bit-identical to every other, and the
// cache must have run exactly one replay per distinct slice key
// (Fills == distinct slices), proving the LRU + single-flight layer
// never double-builds and never serves torn state. Run under -race.
func TestServerConcurrentRequests(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	site := firstSite(t, s)
	dev := firstDevice(t, s, site)

	urls := []string{
		"/v1/sites/" + site + "/stats",
		"/v1/sites/" + site + "/days?lo=0&hi=2",
		"/v1/sites/" + site + "/days?lo=1&hi=3",
		"/v1/sites/" + site + "/devices?limit=10",
		"/v1/sites/" + site + "/devices/" + dev,
		"/v1/sites/" + site + "/analysis/active_days",
		"/v1/compare",
	}
	// The distinct slice keys behind those URLs: one whole-window
	// slice per mounted site (stats/devices/analysis/compare all share
	// it), two day slices, one device slice.
	wantFills := int64(len(s.Sites()) + 2 + 1)

	baseline := make(map[string]string, len(urls))
	for _, u := range urls {
		status, body := testGet(t, h, u)
		if status != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", u, status, body)
		}
		baseline[u] = string(body)
	}

	const workers = 16
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 40; i++ {
				u := urls[(w+i)%len(urls)]
				status, body := testGet(t, h, u)
				if status != http.StatusOK {
					errs <- fmt.Errorf("GET %s: status %d", u, status)
					return
				}
				if string(body) != baseline[u] {
					errs <- fmt.Errorf("GET %s: response diverged under concurrency", u)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	st := s.CacheStats()
	if st.Fills != wantFills {
		t.Fatalf("cache ran %d fills for %d distinct slices: %+v", st.Fills, wantFills, st)
	}
	if st.Evictions != 0 {
		t.Fatalf("unbounded test cache evicted: %+v", st)
	}
}
