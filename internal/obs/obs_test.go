package obs

import (
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRegistryConcurrency herds goroutines over one registry: racing
// lookups of the same series, racing increments, racing observes.
// Run under -race this is the registry's thread-safety proof; the
// final values are the correctness proof.
func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const goroutines = 8
	const perG = 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r.Counter("herd_total", "herd counter").Inc()
				r.Gauge("herd_gauge", "herd gauge").Add(1)
				r.Histogram("herd_seconds", "herd histogram", nil).Observe(0.001)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("herd_total", "").Value(); got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := r.Gauge("herd_gauge", "").Value(); got != goroutines*perG {
		t.Errorf("gauge = %d, want %d", got, goroutines*perG)
	}
	if got := r.Histogram("herd_seconds", "", nil).Count(); got != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", got, goroutines*perG)
	}
}

// TestHistogramQuantile checks bucket assignment and quantile
// extraction against a sorted reference: for each q, the histogram
// must return the upper bound of the bucket containing the
// nearest-rank element of the sorted sample.
func TestHistogramQuantile(t *testing.T) {
	bounds := []float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1}
	h := newHistogram(bounds)
	rng := rand.New(rand.NewSource(42))
	vals := make([]float64, 5000)
	for i := range vals {
		// Spread across buckets including the +Inf overflow.
		vals[i] = math.Exp(rng.Float64()*9-7) * 0.01
		h.Observe(vals[i])
	}
	sort.Float64s(vals)
	ref := func(q float64) float64 {
		rank := int(math.Ceil(q * float64(len(vals))))
		v := vals[rank-1]
		i := sort.SearchFloat64s(bounds, v)
		if i == len(bounds) {
			return bounds[len(bounds)-1] // +Inf clamps to largest finite
		}
		return bounds[i]
	}
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 1} {
		if got, want := h.Quantile(q), ref(q); got != want {
			t.Errorf("Quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if got := h.Count(); got != int64(len(vals)) {
		t.Errorf("Count = %d, want %d", got, len(vals))
	}
	var sum float64
	for _, v := range vals {
		sum += v
	}
	if got := h.Sum(); math.Abs(got-sum) > 1e-6*sum {
		t.Errorf("Sum = %v, want ~%v", got, sum)
	}
}

func TestHistogramEdgeCases(t *testing.T) {
	var nilH *Histogram
	if nilH.Quantile(0.99) != 0 || nilH.Count() != 0 || nilH.Sum() != 0 {
		t.Error("nil histogram accessors must return zero")
	}
	h := newHistogram([]float64{1, 2})
	if h.Quantile(0.5) != 0 {
		t.Error("empty histogram quantile must be 0")
	}
	h.Observe(1) // le="1" boundary is inclusive
	if got := h.Quantile(1); got != 1 {
		t.Errorf("boundary observation landed wrong: Quantile(1) = %v, want 1", got)
	}
}

// TestWriteTextGolden pins the exposition format byte for byte:
// sorted series, HELP/TYPE once per base name, label-merged
// cumulative histogram buckets.
func TestWriteTextGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter(`test_requests_total{route="a"}`, "requests served").Add(2)
	r.Counter(`test_requests_total{route="b"}`, "requests served").Add(3)
	r.Gauge("test_inflight", "in-flight requests").Add(1)
	r.GaugeFunc("test_cache_bytes", "cache resident bytes", func() float64 { return 12345 })
	h := r.Histogram(`test_latency_seconds{route="a"}`, "request latency", []float64{0.1, 1})
	for _, v := range []float64{0.0625, 0.5, 0.75, 5} {
		h.Observe(v)
	}
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil {
		t.Fatal(err)
	}
	want := `# HELP test_cache_bytes cache resident bytes
# TYPE test_cache_bytes gauge
test_cache_bytes 12345
# HELP test_inflight in-flight requests
# TYPE test_inflight gauge
test_inflight 1
# HELP test_latency_seconds request latency
# TYPE test_latency_seconds histogram
test_latency_seconds_bucket{route="a",le="0.1"} 1
test_latency_seconds_bucket{route="a",le="1"} 3
test_latency_seconds_bucket{route="a",le="+Inf"} 4
test_latency_seconds_sum{route="a"} 6.3125
test_latency_seconds_count{route="a"} 4
# HELP test_requests_total requests served
# TYPE test_requests_total counter
test_requests_total{route="a"} 2
test_requests_total{route="b"} 3
`
	if got := sb.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestRegistryKindCollision(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Error("cross-kind re-registration must panic")
		}
	}()
	r.Gauge(`x_total{route="a"}`, "")
}

func TestNilRegistryIsInert(t *testing.T) {
	var r *Registry
	r.Counter("c", "").Inc()
	r.Gauge("g", "").Add(9)
	r.GaugeFunc("f", "", func() float64 { return 1 })
	r.Histogram("h", "", nil).Observe(1)
	var sb strings.Builder
	if err := r.WriteText(&sb); err != nil || sb.Len() != 0 {
		t.Errorf("nil registry WriteText = (%q, %v), want empty", sb.String(), err)
	}
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Body.Len() != 0 {
		t.Errorf("nil registry handler body = %q, want empty", rec.Body.String())
	}
}

// TestNilNoOpAllocs is the zero-overhead contract: the full
// instrumentation surface through nil receivers must not allocate.
func TestNilNoOpAllocs(t *testing.T) {
	var (
		c  *Counter
		g  *Gauge
		h  *Histogram
		tr *Tracer
	)
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(5)
		g.Add(3)
		h.Observe(0.1)
		h.Start().Stop()
		tr.Start("op").Label("k", "v").Finish()
	})
	if allocs != 0 {
		t.Errorf("nil no-op path allocated %v allocs/op, want 0", allocs)
	}
}

// BenchmarkNilNoOp is the same contract as a benchmark, so the cost
// of detached instrumentation is a measured number (expected: a few
// ns and 0 B/op).
func BenchmarkNilNoOp(b *testing.B) {
	var (
		c  *Counter
		g  *Gauge
		h  *Histogram
		tr *Tracer
	)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
		g.Add(int64(i))
		h.Observe(0.1)
		h.Start().Stop()
		tr.Start("op").Label("k", "v").Finish()
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench_total", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench_seconds", "", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(0.0042)
	}
}

func TestTracerRingAndSlowLog(t *testing.T) {
	var logged []string
	tr := NewTracer(4, time.Nanosecond, func(format string, args ...any) {
		logged = append(logged, format)
	})
	for i := 0; i < 6; i++ {
		sp := tr.Start("op").Label("i", string(rune('a'+i)))
		time.Sleep(time.Millisecond)
		sp.Finish()
	}
	recent := tr.Recent()
	if len(recent) != 4 {
		t.Fatalf("ring kept %d spans, want 4", len(recent))
	}
	// Most recent first: labels f, e, d, c.
	for i, want := range []string{"i=f", "i=e", "i=d", "i=c"} {
		if recent[i].Labels[0] != want {
			t.Errorf("recent[%d].Labels = %v, want [%s]", i, recent[i].Labels, want)
		}
	}
	if recent[0].DurationNs <= 0 {
		t.Error("span duration not stamped")
	}
	if len(logged) != 6 {
		t.Errorf("slow log fired %d times, want 6 (threshold 1ns, spans sleep 1ms)", len(logged))
	}

	rec := httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/spans", nil))
	if !strings.Contains(rec.Body.String(), `"name":"op"`) {
		t.Errorf("spans handler body missing span: %s", rec.Body.String())
	}

	var nilT *Tracer
	nilT.Start("x").Label("a", "b").Finish() // must not panic
	if nilT.Recent() != nil {
		t.Error("nil tracer Recent must be nil")
	}
}

func TestRegisterPprof(t *testing.T) {
	mux := http.NewServeMux()
	RegisterPprof(mux)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/pprof/cmdline", nil))
	if rec.Code != http.StatusOK {
		t.Errorf("pprof cmdline status = %d, want 200", rec.Code)
	}
}
