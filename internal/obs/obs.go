// Package obs is the zero-dependency observability subsystem: a
// concurrent metrics registry (counters, gauges, bounded-bucket
// histograms with quantile extraction), Prometheus text-format
// exposition, lightweight span tracing with a slow-operation log, and
// opt-in net/http/pprof wiring.
//
// Every type in this package is safe to use through a nil pointer:
// methods on a nil *Counter, *Gauge, *Histogram, *Tracer or *Span are
// no-ops that allocate nothing, so instrumented packages hold plain
// pointers and skip all work when no registry is attached. That is
// the mechanism by which instrumentation stays off the library's
// deterministic hot paths — a nil check, nothing else.
//
// obs sits deliberately outside the roamvet deterministic scope (see
// internal/lint.ScopeExemptions): it owns the process's real clock
// (time.Now lives here and in the load generator, nowhere else in the
// serving path) and its outputs — latencies, span timings, scrape
// bodies — describe one concrete execution, not the reproducible
// result surface the determinism contract pins.
package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Registry holds named series. The zero value is not usable; call
// NewRegistry. All methods are safe for concurrent use, and all
// methods on a nil *Registry return nil (which yields no-op metrics).
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	gaugeFuncs map[string]func() float64
	hists      map[string]*Histogram
	help       map[string]string // base name -> HELP text
	kinds      map[string]string // base name -> exposition TYPE
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   map[string]*Counter{},
		gauges:     map[string]*Gauge{},
		gaugeFuncs: map[string]func() float64{},
		hists:      map[string]*Histogram{},
		help:       map[string]string{},
		kinds:      map[string]string{},
	}
}

// baseName strips the label block from a series name:
// `x_total{route="a"}` has base name `x_total`. HELP and TYPE lines
// are emitted once per base name.
func baseName(series string) string {
	for i := 0; i < len(series); i++ {
		if series[i] == '{' {
			return series[:i]
		}
	}
	return series
}

// register records the base-name kind and help, panicking on a
// cross-kind collision (two series sharing a base name must share a
// type for the exposition to be valid).
func (r *Registry) register(series, kind, help string) {
	base := baseName(series)
	if prev, ok := r.kinds[base]; ok && prev != kind {
		panic(fmt.Sprintf("obs: series %q already registered as %s, now requested as %s", base, prev, kind))
	}
	r.kinds[base] = kind
	if _, ok := r.help[base]; !ok {
		r.help[base] = help
	}
}

// Counter returns the counter registered under name, creating it if
// needed. The name may carry a label block (`x_total{route="a"}`);
// labels are part of the series identity. Returns nil on a nil
// registry.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	r.register(name, "counter", help)
	c := &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it if
// needed. Returns nil on a nil registry.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	r.register(name, "gauge", help)
	g := &Gauge{}
	r.gauges[name] = g
	return g
}

// GaugeFunc registers fn as a gauge evaluated at scrape time — the
// idiom for exporting counters a subsystem already maintains (the
// serve cache) without a second source of truth. Re-registering a
// name replaces the function. No-op on a nil registry.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.register(name, "gauge", help)
	r.gaugeFuncs[name] = fn
}

// Histogram returns the histogram registered under name, creating it
// with the given bucket upper bounds if needed (nil buckets means
// DefBuckets). Returns nil on a nil registry.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	r.register(name, "histogram", help)
	h := newHistogram(buckets)
	r.hists[name] = h
	return h
}

// Counter is a monotonically increasing series. All methods are
// nil-safe no-ops.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil counter).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a series that can go up and down. All methods are
// nil-safe no-ops.
type Gauge struct {
	v atomic.Int64
}

// Add adjusts the gauge by delta (negative to decrement).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value (0 on a nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// DefBuckets are the default histogram bounds, in seconds: a
// log-ish ladder from 100µs to 10s suited to request and segment
// latencies. Observations above the last bound land in the implicit
// +Inf bucket.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket histogram: bounded memory regardless of
// observation count, cumulative bucket exposition, nearest-rank
// quantiles resolved to bucket upper bounds. All methods are nil-safe
// no-ops.
type Histogram struct {
	bounds []float64      // sorted upper bounds; +Inf implicit
	counts []atomic.Int64 // len(bounds)+1, last is +Inf
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

func newHistogram(buckets []float64) *Histogram {
	if buckets == nil {
		buckets = DefBuckets
	}
	bounds := make([]float64, len(buckets))
	copy(bounds, buckets)
	sort.Float64s(bounds)
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v, i.e. le-bucket
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations (0 on a nil histogram).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on a nil histogram).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Quantile returns the q-quantile (0 < q <= 1) resolved to the upper
// bound of the bucket holding the nearest-rank observation — an
// overestimate by at most one bucket width, which is the resolution a
// bounded-bucket histogram can honestly claim. Observations in the
// +Inf bucket clamp to the largest finite bound. Returns 0 when
// empty or nil.
//
//roamvet:deadcode-ok test oracle: the obs and serve tests read latency histograms back through it
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 || len(h.bounds) == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= rank {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			return h.bounds[len(h.bounds)-1]
		}
	}
	return h.bounds[len(h.bounds)-1]
}

// Start begins timing an operation against the histogram. On a nil
// histogram the returned stopwatch is inert and no clock is read.
func (h *Histogram) Start() Stopwatch {
	if h == nil {
		return Stopwatch{}
	}
	return Stopwatch{h: h, t0: time.Now()}
}

// Stopwatch times one operation into a histogram, in seconds. The
// zero value is inert.
type Stopwatch struct {
	h  *Histogram
	t0 time.Time
}

// Stop observes the elapsed time and returns it; inert stopwatches
// return 0 without reading the clock.
func (s Stopwatch) Stop() time.Duration {
	if s.h == nil {
		return 0
	}
	d := time.Since(s.t0)
	s.h.Observe(d.Seconds())
	return d
}
