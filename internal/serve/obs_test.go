package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"whereroam/internal/obs"
)

// metricValue extracts the value of one exposition line by its full
// series name (including any label block), or -1 when absent.
func metricValue(t *testing.T, text, series string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("series %s has unparsable value %q", series, rest)
			}
			return v
		}
	}
	return -1
}

// scrape renders the registry's exposition text.
func scrape(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestServeObservability drives an instrumented server end to end and
// checks that the three layers all surface on /metrics: per-route
// request/error counters, cache gauges, and the store's plan/read
// counters populated through the handler's replay path — plus a
// slice_build span in the tracer ring.
func TestServeObservability(t *testing.T) {
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(32, time.Hour, nil)
	s := newTestServer(t, Config{Metrics: reg, Tracer: tracer})
	h := s.Handler()
	site := firstSite(t, s)

	if st, _ := testGet(t, h, "/v1/sites"); st != http.StatusOK {
		t.Fatalf("/v1/sites: status %d", st)
	}
	var afterFill string
	for i := 0; i < 3; i++ {
		if st, _ := testGet(t, h, "/v1/sites/"+site+"/stats"); st != http.StatusOK {
			t.Fatalf("stats: status %d", st)
		}
		if i == 0 {
			afterFill = scrape(t, reg)
		}
	}
	if st, _ := testGet(t, h, "/v1/sites/99999/stats"); st != http.StatusNotFound {
		t.Fatalf("unknown site: status %d", st)
	}
	text := scrape(t, reg)

	for series, min := range map[string]float64{
		`roamd_http_requests_total{route="sites"}`:      1,
		`roamd_http_requests_total{route="site_stats"}`: 4, // 3 ok + 1 not-found
		`roamd_http_errors_total{route="site_stats"}`:   1,
		`roamd_http_latency_seconds_count`:              5,
		`store_segments_selected_total`:                 1,
		`store_segments_read_total`:                     1,
		`store_records_read_total`:                      1,
	} {
		if got := metricValue(t, text, series); got < min {
			t.Errorf("%s = %v, want >= %v", series, got, min)
		}
	}
	// The cache's contract, from counters: the first stats request is
	// the fill, the two repeats are hits, and a hit fills nothing and
	// reads zero bytes from the store.
	for _, series := range []string{"roamd_cache_fills", "store_bytes_read_total"} {
		cold, warm := metricValue(t, afterFill, series), metricValue(t, text, series)
		if cold < 1 || warm != cold {
			t.Errorf("%s = %v after the fill and %v after two hits, want equal and non-zero", series, cold, warm)
		}
	}
	if hits := metricValue(t, text, "roamd_cache_hits"); hits != 2 {
		t.Errorf("roamd_cache_hits = %v after two repeated stats requests, want 2", hits)
	}
	if got := metricValue(t, text, "roamd_http_inflight"); got != 0 {
		t.Errorf("roamd_http_inflight = %v after requests drained, want 0", got)
	}

	var sawBuild bool
	for _, sp := range tracer.Recent() {
		if sp.Name == "slice_build" {
			sawBuild = true
			if len(sp.Labels) == 0 || !strings.HasPrefix(sp.Labels[0], "key=") {
				t.Errorf("slice_build span lacks key label: %+v", sp)
			}
		}
	}
	if !sawBuild {
		t.Error("tracer ring has no slice_build span")
	}
}

// TestColdFillReplaysOneRange pins that a slice fill runs on its
// request's goroutine: a cold whole-window fill that selects several
// segments decodes them as one replay range, so the store's per-range
// histogram gains exactly one observation. Config.Workers is set to
// show that the server does not read it.
func TestColdFillReplaysOneRange(t *testing.T) {
	reg := obs.NewRegistry()
	s := newTestServer(t, Config{Workers: 2, Metrics: reg})
	site := firstSite(t, s)
	before := scrape(t, reg)
	if st, body := testGet(t, s.Handler(), "/v1/sites/"+site+"/stats"); st != http.StatusOK {
		t.Fatalf("stats: status %d (%s)", st, body)
	}
	after := scrape(t, reg)
	delta := func(series string) float64 {
		return metricValue(t, after, series) - max(metricValue(t, before, series), 0)
	}
	if sel := delta("store_segments_selected_total"); sel < 2 {
		t.Fatalf("the fill selected %v segments, want at least 2 for the range count to mean anything", sel)
	}
	if n := delta("store_replay_shard_seconds_count"); n != 1 {
		t.Errorf("store_replay_shard_seconds gained %v observations for one cold fill, want 1", n)
	}
}

// TestFailedFillLeavesSpan pins that a fill which fails still finishes
// its slice_build span: a traced server whose store vanished answers
// 503, and the tracer ring then holds the span with the cache key and
// the fill's error.
func TestFailedFillLeavesSpan(t *testing.T) {
	tracer := obs.NewTracer(32, 0, nil)
	h, names := goneStoreServer(t, Config{Tracer: tracer})
	if st, body := testGet(t, h, "/v1/sites/"+names[0]+"/stats"); st != http.StatusServiceUnavailable {
		t.Fatalf("stats with store gone: status %d (%s)", st, body)
	}
	for _, sp := range tracer.Recent() {
		if sp.Name != "slice_build" {
			continue
		}
		var key, errLabel bool
		for _, l := range sp.Labels {
			key = key || strings.HasPrefix(l, "key=")
			errLabel = errLabel || (strings.HasPrefix(l, "error=") && len(l) > len("error="))
		}
		if !key || !errLabel {
			t.Fatalf("failed fill's slice_build span labels = %q, want key= and error=", sp.Labels)
		}
		return
	}
	t.Fatalf("tracer ring has no slice_build span after a failed fill: %+v", tracer.Recent())
}

// TestUninstrumentedServerHasNoWrapper pins the zero-config path:
// without a registry or tracer the middleware is not installed and
// requests still serve.
func TestUninstrumentedServerHasNoWrapper(t *testing.T) {
	s := newTestServer(t, Config{})
	if s.obs != nil {
		t.Fatal("obs state created without Metrics or Tracer configured")
	}
	if st, _ := testGet(t, s.Handler(), "/v1/sites"); st != http.StatusOK {
		t.Fatalf("/v1/sites: status %d", st)
	}
}

// TestScrapeHistogramQuantile covers roamload's server-side p99
// cross-check against a live /metrics endpoint.
func TestScrapeHistogramQuantile(t *testing.T) {
	reg := obs.NewRegistry()
	hist := reg.Histogram("roamd_http_latency_seconds", "t", nil)
	for i := 0; i < 99; i++ {
		hist.Observe(0.0004) // le=0.0005 bucket
	}
	hist.Observe(0.08) // le=0.1 bucket

	mux := http.NewServeMux()
	mux.Handle("GET /metrics", reg.Handler())
	ts := httptest.NewServer(mux)
	defer ts.Close()

	d, ok, err := ScrapeHistogramQuantile(nil, ts.URL, "roamd_http_latency_seconds", 0.99)
	if err != nil || !ok {
		t.Fatalf("scrape failed: ok=%v err=%v", ok, err)
	}
	// Rank ceil(0.99*100)=99 lands in the le=0.0005 bucket.
	if d != 500*time.Microsecond {
		t.Errorf("p99 = %v, want 500µs", d)
	}
	d, ok, err = ScrapeHistogramQuantile(nil, ts.URL, "roamd_http_latency_seconds", 1)
	if err != nil || !ok {
		t.Fatalf("scrape failed: ok=%v err=%v", ok, err)
	}
	if d != 100*time.Millisecond {
		t.Errorf("p100 = %v, want 100ms", d)
	}

	// Missing series and missing endpoint both report ok=false, nil err.
	if _, ok, err := ScrapeHistogramQuantile(nil, ts.URL, "no_such_series", 0.99); ok || err != nil {
		t.Errorf("missing series: ok=%v err=%v, want false,nil", ok, err)
	}
	bare := httptest.NewServer(http.NewServeMux())
	defer bare.Close()
	if _, ok, err := ScrapeHistogramQuantile(nil, bare.URL, "roamd_http_latency_seconds", 0.99); ok || err != nil {
		t.Errorf("missing endpoint: ok=%v err=%v, want false,nil", ok, err)
	}
}
