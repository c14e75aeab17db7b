package serve

import (
	"net/http"
	"strconv"

	"whereroam/internal/obs"
	"whereroam/internal/store"
)

// routeNames are the instrumented routes, one per Handler pattern.
// Per-route series are pre-registered at construction so the request
// path only touches pre-resolved handles.
var routeNames = []string{
	"healthz", "sites", "site_stats", "days", "devices",
	"device", "analysis", "compare",
}

// routeObs is one route's pre-resolved instrumentation handles.
type routeObs struct {
	requests *obs.Counter
	errors   *obs.Counter
	latency  *obs.Histogram
}

// serverObs is the server's observability state: nil on an
// uninstrumented server, in which case every hook below is a no-op
// and the request path is exactly the PR-7 code.
type serverObs struct {
	tracer   *obs.Tracer
	inflight *obs.Gauge
	latency  *obs.Histogram
	routes   map[string]*routeObs
	store    *store.Metrics
}

// newServerObs registers the serve-layer series and the cache gauges
// (scrape-time views over the slice cache's own counters — the cache
// stays the one source of truth; see CacheStats).
func newServerObs(s *Server, reg *obs.Registry, tracer *obs.Tracer) *serverObs {
	o := &serverObs{
		tracer:   tracer,
		inflight: reg.Gauge("roamd_http_inflight", "requests currently being served"),
		latency:  reg.Histogram("roamd_http_latency_seconds", "request latency across all routes", nil),
		routes:   make(map[string]*routeObs, len(routeNames)),
		store:    store.NewMetrics(reg, tracer),
	}
	for _, name := range routeNames {
		o.routes[name] = &routeObs{
			requests: reg.Counter(`roamd_http_requests_total{route="`+name+`"}`, "requests served per route"),
			errors:   reg.Counter(`roamd_http_errors_total{route="`+name+`"}`, "4xx/5xx responses per route"),
			latency:  reg.Histogram(`roamd_http_route_latency_seconds{route="`+name+`"}`, "request latency per route", nil),
		}
	}
	if reg != nil {
		cacheGauge := func(name, help string, field func(CacheStats) int64) {
			reg.GaugeFunc(name, help, func() float64 { return float64(field(s.cache.stats())) })
		}
		cacheGauge("roamd_cache_hits", "slice cache hits", func(cs CacheStats) int64 { return cs.Hits })
		cacheGauge("roamd_cache_misses", "slice cache misses", func(cs CacheStats) int64 { return cs.Misses })
		cacheGauge("roamd_cache_waits", "requests coalesced onto an in-flight fill", func(cs CacheStats) int64 { return cs.Waits })
		cacheGauge("roamd_cache_fills", "slice rebuilds executed", func(cs CacheStats) int64 { return cs.Fills })
		cacheGauge("roamd_cache_evictions", "slices evicted to respect the byte bound", func(cs CacheStats) int64 { return cs.Evictions })
		cacheGauge("roamd_cache_entries", "resident cached slices", func(cs CacheStats) int64 { return int64(cs.Entries) })
		cacheGauge("roamd_cache_bytes", "estimated resident bytes of cached slices", func(cs CacheStats) int64 { return cs.Bytes })
		cacheGauge("roamd_cache_max_bytes", "configured cache byte bound", func(cs CacheStats) int64 { return cs.MaxBytes })
	}
	return o
}

// span opens a tracer span; nil-safe end to end.
func (o *serverObs) span(name string) *obs.Span {
	if o == nil {
		return nil
	}
	return o.tracer.Start(name)
}

// statusWriter captures the response status for the error counter.
type statusWriter struct {
	http.ResponseWriter
	status int
}

// WriteHeader records the status before delegating.
func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// route wraps a handler with the per-route middleware: request and
// error counters, in-flight gauge, overall and per-route latency
// histograms. On an uninstrumented server it returns h unchanged —
// zero overhead, no wrapper in the call path.
func (s *Server) route(name string, h http.HandlerFunc) http.HandlerFunc {
	o := s.obs
	if o == nil {
		return h
	}
	ro := o.routes[name]
	return func(w http.ResponseWriter, r *http.Request) {
		o.inflight.Add(1)
		swAll := o.latency.Start()
		swRoute := ro.latency.Start()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		h(sw, r)
		swRoute.Stop()
		swAll.Stop()
		o.inflight.Add(-1)
		ro.requests.Inc()
		if sw.status >= 400 {
			ro.errors.Inc()
		}
	}
}

// buildSlice is the shared cache-fill path: take the mount's reader
// (store metrics already attached), replay under q and derive the
// slice, both serially on the filling request's goroutine — under a
// slice_build span labeled with the cache key and
// either the built slice's cost estimate or the fill's error. The span
// finishes on every path, a panicking fill included, so the failed
// fills reach /debug/spans and the slow-op log too.
func (s *Server) buildSlice(key string, m *mount, q store.Query) (*slice, error) {
	return s.cache.get(key, func() (sl *slice, err error) {
		sp := s.obs.span("slice_build").Label("key", key)
		defer func() {
			switch {
			case err != nil:
				sp.Label("error", err.Error())
			case sl == nil:
				sp.Label("error", "panic")
			default:
				sp.Label("cost_bytes", strconv.FormatInt(sl.cost, 10))
			}
			sp.Finish()
		}()
		r, err := m.open()
		if err != nil {
			return nil, err
		}
		cat, _, err := r.Replay(q, 1)
		if err != nil {
			return nil, err
		}
		return newSlice(cat, 1), nil
	})
}
