package main

import (
	"math"
	"os"
	"regexp"
	"runtime"
	"testing"
	"time"
)

var tinyConfig = config{seed: 7, seconds: 0.2, clients: 1, sz: tinySizes}

func declaredFile(t *testing.T) *benchmarkFile {
	t.Helper()
	bf, err := readBenchmarkFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return bf
}

// sameMetrics requires the emitted metrics to be exactly the declared
// ones, unit for unit.
func sameMetrics(t *testing.T, what string, got map[string]metric, want []declared) {
	t.Helper()
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	declaredNames := map[string]bool{}
	for _, d := range want {
		declaredNames[d.Name] = true
		m, ok := got[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: BENCHMARK.json declares %s, the run did not emit it", what, d.Name)
		case m.Unit != d.Unit:
			t.Errorf("%s: %s emitted in %q, declared in %q", what, d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: %s = %v", what, d.Name, m.Value)
		}
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) {
			t.Errorf("%s: name %q or unit %q is outside the driver's alphabet", what, d.Name, d.Unit)
		}
	}
	for n := range got {
		if !declaredNames[n] {
			t.Errorf("%s: the run emitted %s, BENCHMARK.json does not declare it", what, n)
		}
	}
}

// TestBenchmarkFileShape pins the limits the driver enforces before
// it makes a single run.
func TestBenchmarkFileShape(t *testing.T) {
	bf := declaredFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if got := workloadNames(); !equal(got, names) {
		t.Errorf("workloads: program has %v, BENCHMARK.json has %v", got, names)
	}
	if n := len(bf.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(bf.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(bf.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	seen, setup := map[string]bool{}, false
	for _, d := range append(append([]declared{}, bf.EndToEnd...), bf.PerLayer...) {
		if seen[d.Name] {
			t.Errorf("metric name %s is used twice", d.Name)
		}
		seen[d.Name] = true
	}
	for _, d := range bf.EndToEnd {
		if d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside [0, 0.25]", d.Name, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
}

func equal(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestWorkloadsSmoke runs all four workloads at tiny scale: every op
// passes its output checks and the metrics are the declared ones.
func TestWorkloadsSmoke(t *testing.T) {
	bf := declaredFile(t)
	for _, w := range workloads {
		if testing.Short() && w.name != "feed_archive" {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			o, err := w.run(tinyConfig)
			if err != nil {
				t.Fatal(err)
			}
			if o.failed != 0 || len(o.problems) != 0 || len(o.ops) == 0 || len(o.ops) != o.attempted {
				t.Fatalf("attempted %d, completed %d, failed %d: %v", o.attempted, len(o.ops), o.failed, o.problems)
			}
			sameMetrics(t, w.name, endToEnd(o), bf.EndToEnd)
			for n, m := range endToEnd(o) {
				if m.Value <= 0 {
					t.Errorf("%s = %v, end-to-end metrics must never be 0", n, m.Value)
				}
			}
			if hit, ok := o.notes["cache_hit_ratio"]; ok && w.name == "serve_warm" && hit < 0.99 {
				t.Errorf("serve_warm cache hit ratio %v, want every request a hit", hit)
			}
		})
	}
}

// TestProfileSmoke runs the traced layer profile at tiny scale.
func TestProfileSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads twice")
	}
	out := t.TempDir() + "/spans.jsonl"
	res, err := runProfile("serve_cold", tinyConfig, out)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("profile: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	sameMetrics(t, "profile", res.Metrics, declaredFile(t).PerLayer)
	if info, err := os.Stat(out); err != nil || info.Size() == 0 {
		t.Errorf("trace file: %v", err)
	}
	if err := runOne("nope", tinyConfig, true, ""); err == nil {
		t.Error("an unknown workload was accepted")
	}
}

// TestSeedIsTheOnlyInput pins that a seed fixes the generated load
// and that another seed changes it.
func TestSeedIsTheOnlyInput(t *testing.T) {
	feedDigest := func(seed uint64) [32]byte {
		d, err := genFeed(seed, tinySizes).digest()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	if feedDigest(1) != feedDigest(1) {
		t.Error("the same seed produced two different feeds")
	}
	if feedDigest(1) == feedDigest(2) {
		t.Error("two seeds produced the same feed")
	}

	cfg := tinyConfig
	fx, err := buildFixture(cfg, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ks := fx.keys()
	schedule := func(seed uint64) [32]byte { return scheduleDigest(seed, 2, 500, ks, fx.sites) }
	if schedule(1) != schedule(1) {
		t.Error("the same seed produced two different request schedules")
	}
	if schedule(1) == schedule(2) {
		t.Error("two seeds produced the same request schedule")
	}
	if len(ks.cold) != len(fx.sites)*(2*cfg.sz.fixtureDays-1+1)+countDevices(fx) {
		t.Errorf("cold key set has %d keys", len(ks.cold))
	}
}

func countDevices(fx *fixture) (n int) {
	for _, d := range fx.devices {
		n += len(d)
	}
	return n
}

func TestRefusesMoreClientsThanCPUs(t *testing.T) {
	if err := realMain("feed_archive", config{seed: 1, seconds: 1, clients: runtime.NumCPU() + 1, sz: tinySizes}, false, "", "", 0); err == nil {
		t.Error("more client goroutines than CPUs were accepted")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}

func TestSelfTimeExcludesChildren(t *testing.T) {
	r := &recorder{epoch: time.Now(), spans: []span{
		{Name: "bench.op", Parent: -1, StartNs: 0, EndNs: 100},
		{Name: "store.a", Parent: 0, StartNs: 10, EndNs: 50},
		{Name: "store.b", Parent: 0, StartNs: 40, EndNs: 70}, // overlaps a: counted once
		{Name: "cdrs.c", Parent: 1, StartNs: 20, EndNs: 30},
	}}
	self := r.selfTimes()
	want := map[string]time.Duration{"bench.op": 40, "store.a": 30, "store.b": 30, "cdrs.c": 10}
	for name, d := range want {
		if self[name] != d {
			t.Errorf("self time of %s = %d, want %d", name, self[name], d)
		}
	}
	var off *recorder
	off.do("x.y", 0, off.begin("x", 0, -1), func() {})
	off.end(-1)
	if len(off.selfTimes()) != 0 {
		t.Error("a nil recorder recorded spans")
	}
	if tl, p := tail(make([]time.Duration, 150)); p != 90 || tl != 0 {
		t.Errorf("tail of 150 samples chose p%v", p)
	}
}
