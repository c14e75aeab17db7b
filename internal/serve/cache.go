package serve

import (
	"container/list"
	"fmt"
	"sync"
)

// CacheStats is a point-in-time snapshot of the slice cache's
// counters, exported as the roamd_cache_* gauges on /metrics and
// asserted on by the concurrency tests (Fills is the "exactly one
// replay per slice" counter).
type CacheStats struct {
	// Entries is the number of cached slices.
	Entries int `json:"entries"`
	// Bytes is the estimated resident cost of the cached slices.
	Bytes int64 `json:"bytes"`
	// MaxBytes is the configured cache bound.
	MaxBytes int64 `json:"max_bytes"`
	// Hits counts requests answered from the cache.
	Hits int64 `json:"hits"`
	// Misses counts requests that found no cached slice and started a
	// fill.
	Misses int64 `json:"misses"`
	// Waits counts requests that arrived while an identical fill was
	// in flight and waited for it instead of replaying again — the
	// single-flight coalescing counter.
	Waits int64 `json:"waits"`
	// Fills counts slice rebuilds actually executed; with single
	// flight it equals Misses, never Misses+Waits.
	Fills int64 `json:"fills"`
	// Evictions counts slices dropped to respect MaxBytes.
	Evictions int64 `json:"evictions"`
}

// flight is one in-progress slice fill; concurrent requests for the
// same key block on done and share the one result.
type flight struct {
	done chan struct{}
	s    *slice
	err  error
}

// cacheEntry is one resident slice keyed by its request descriptor.
type cacheEntry struct {
	key string
	s   *slice
}

// sliceCache is a size-bounded LRU of read-model slices with
// single-flight fill: at most one goroutine rebuilds a missing slice
// while identical requests wait for that rebuild, so a thundering
// herd of cold requests costs one replay, not N. All methods are safe
// for concurrent use; cached slices are immutable and shared between
// readers.
type sliceCache struct {
	mu       sync.Mutex
	max      int64
	cur      int64
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
	inflight map[string]*flight

	hits, misses, waits, fills, evictions int64
}

// newSliceCache returns a cache bounded to maxBytes of estimated
// slice cost (non-positive means an effectively unbounded cache).
func newSliceCache(maxBytes int64) *sliceCache {
	if maxBytes <= 0 {
		maxBytes = 1 << 62
	}
	return &sliceCache{
		max:      maxBytes,
		ll:       list.New(),
		items:    map[string]*list.Element{},
		inflight: map[string]*flight{},
	}
}

// get returns the slice cached under key, or builds it with fill.
// Exactly one caller runs fill per missing key at a time; every
// concurrent caller for the same key receives the identical *slice
// (or the identical error, which is never cached). If fill panics the
// panic continues up the filling caller's stack, callers already
// waiting on the flight get an error, and the key is left clear so the
// next request fills afresh.
func (c *sliceCache) get(key string, fill func() (*slice, error)) (*slice, error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		s := el.Value.(*cacheEntry).s
		c.mu.Unlock()
		return s, nil
	}
	if fl, ok := c.inflight[key]; ok {
		c.waits++
		c.mu.Unlock()
		<-fl.done
		return fl.s, fl.err
	}
	fl := &flight{done: make(chan struct{})}
	c.inflight[key] = fl
	c.misses++
	c.fills++
	c.mu.Unlock()

	// Land the flight in a defer: a fill that panics (net/http recovers
	// it per connection) must still clear inflight[key] and close done,
	// or every later request for the key would block for ever.
	returned := false
	defer func() {
		if !returned {
			fl.s, fl.err = nil, fmt.Errorf("serve: fill of slice %q panicked", key)
		}
		c.mu.Lock()
		delete(c.inflight, key)
		if fl.err == nil {
			c.insertLocked(key, fl.s)
		}
		c.mu.Unlock()
		close(fl.done)
	}()
	fl.s, fl.err = fill()
	returned = true
	return fl.s, fl.err
}

// insertLocked adds a freshly filled slice and evicts from the LRU
// tail until the cache fits its bound again. The newest slice is
// never evicted — a slice bigger than the whole bound still serves
// the requests that are waiting on it and falls out on the next
// insert.
func (c *sliceCache) insertLocked(key string, s *slice) {
	if el, ok := c.items[key]; ok {
		// A concurrent fill for the same key can only happen after an
		// eviction raced the flight map; keep the resident one.
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, s: s})
	c.cur += s.cost
	for c.cur > c.max && c.ll.Len() > 1 {
		tail := c.ll.Back()
		ent := tail.Value.(*cacheEntry)
		c.ll.Remove(tail)
		delete(c.items, ent.key)
		c.cur -= ent.s.cost
		c.evictions++
	}
}

// stats snapshots the counters.
func (c *sliceCache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:   c.ll.Len(),
		Bytes:     c.cur,
		MaxBytes:  c.max,
		Hits:      c.hits,
		Misses:    c.misses,
		Waits:     c.waits,
		Fills:     c.fills,
		Evictions: c.evictions,
	}
}
