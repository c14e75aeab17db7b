// Command bench is the repository's benchmark: four workloads over
// the three paths a user waits on — reproduce every paper artefact
// (batch_repro), archive and compact a live CDR feed (feed_archive),
// and query roamd from archives with a cache too small (serve_cold)
// or large enough (serve_warm) — each reporting the end-to-end
// metrics BENCHMARK.json names, checking its outputs, and, in a
// separate traced run, the per-layer metrics. README.md in this
// directory defines every workload and metric.
//
// One workload, as the driver runs it:
//
//	bash bench/run.sh --workload serve_cold --seed 1 --seconds 12 --trace 0
//
// Every workload, untraced then traced, with a results file:
//
//	bash bench/run.sh -seed 1 -out results.json [-check-repeat 10]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// sizes fixes how much work the workloads generate. The driver's
// contract caps one run near half a minute including set-up, so the
// full sizes sit below the ones ISSUE.md sketched (README.md lists
// both); the test uses the tiny ones.
type sizes struct {
	batchFactor    float64 // experiments session scale factor
	feedNative     int     // SMIP native meters behind the feed
	feedRoaming    int     // SMIP roaming meters behind the feed
	segRecords     int     // records per archive segment
	fleetDevices   int     // federation fleet behind the serve fixture
	nativePerSite  int     // federation natives per site
	fixtureDays    int     // federation window
	devicesPerSite int     // distinct devices looked up per site
	coldCacheBytes int64   // serve_cold slice cache bound
	warmCacheBytes int64   // serve_warm slice cache bound
	tracedRequests int     // serve_warm requests in the traced run
}

var fullSizes = sizes{
	batchFactor: 0.1,
	feedNative:  3000, feedRoaming: 1800, segRecords: 4096,
	fleetDevices: 2500, nativePerSite: 1250, fixtureDays: 14,
	devicesPerSite: 200,
	coldCacheBytes: 16 << 20, warmCacheBytes: 1 << 30,
	tracedRequests: 10000,
}

var tinySizes = sizes{
	batchFactor: 0.01,
	feedNative:  40, feedRoaming: 24, segRecords: 256,
	fleetDevices: 60, nativePerSite: 30, fixtureDays: 4,
	devicesPerSite: 8,
	coldCacheBytes: 64 << 10, warmCacheBytes: 1 << 30,
	tracedRequests: 200,
}

// config is one run's input: the seed is the only value that changes
// the generated load.
type config struct {
	seed    uint64
	seconds float64
	clients int
	sz      sizes
}

// outcome is what one untraced workload run observed.
type outcome struct {
	setup     time.Duration
	ops       []time.Duration            // wall time of every completed op
	byType    map[string][]time.Duration // the same, split by query type (serve)
	attempted int
	failed    int
	problems  []string // why ops or whole-run checks failed
	m         *meter
	notes     map[string]float64 // workload-specific readings for the human report
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.problem(format, args...)
}

// problem records a failed check without charging it to an op.
func (o *outcome) problem(format string, args ...any) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output, as the driver reads it.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload is one named set of inputs. run measures it untraced;
// the traced twin lives in the layer profile (profile.go).
type workload struct {
	name string
	run  func(cfg config) (*outcome, error)
}

var workloads = []workload{
	{"batch_repro", runBatchRepro},
	{"feed_archive", runFeedArchive},
	{"serve_cold", runServeCold},
	{"serve_warm", runServeWarm},
}

// lookup finds a workload by name.
func lookup(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

// endToEnd derives the end-to-end metrics every workload reports.
// An op is a pass (batch_repro, feed_archive) or a request (serve_*).
func endToEnd(o *outcome) map[string]metric {
	done := float64(len(o.ops))
	sorted := sortedCopy(o.ops)
	return map[string]metric{
		"setup_s":       {o.setup.Seconds(), "s"},
		"op_p50_ms":     {ms(percentile(sorted, 50)), "ms"},
		"op_p95_ms":     {ms(percentile(sorted, 95)), "ms"},
		"ops_per_s":     {done / o.m.wall.Seconds(), "1/s"},
		"cpu_s_per_op":  {o.m.cpu.Seconds() / done, "s"},
		"allocs_per_op": {float64(o.m.mallocs) / done, "count"},
		"peak_heap_mib": {float64(o.m.peakHeap.Load()) / (1 << 20), "MiB"},
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func printMetrics(ms map[string]metric) {
	for _, n := range sortedKeys(ms) {
		fmt.Printf("  %-40s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// runOne is the driver's contract: one workload, one seed, the
// metrics as the last line of standard output.
func runOne(name string, cfg config, traced bool, traceOut string) error {
	w, err := lookup(name)
	if err != nil {
		return err
	}
	var res result
	if traced {
		prof, err := runProfile(name, cfg, traceOut)
		if err != nil {
			return err
		}
		res = *prof
	} else {
		o, err := w.run(cfg)
		if err != nil {
			return err
		}
		if len(o.ops) == 0 {
			return fmt.Errorf("%s completed no op", name)
		}
		res = result{Correct: o.failed == 0 && len(o.problems) == 0, Attempted: o.attempted, Failed: o.failed, Metrics: endToEnd(o)}
		for _, p := range o.problems {
			fmt.Println("  CHECK FAILED:", p)
		}
		printNotes(o)
	}
	fmt.Printf("%s seed=%d seconds=%g trace=%v clients=%d\n", name, cfg.seed, cfg.seconds, traced, cfg.clients)
	printMetrics(res.Metrics)
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func printNotes(o *outcome) {
	for _, n := range sortedKeys(o.notes) {
		fmt.Printf("  note %-35s %14.6g\n", n, o.notes[n])
	}
	for _, t := range sortedKeys(o.byType) {
		tl, p := tail(o.byType[t])
		fmt.Printf("  note %-8s n=%-6d p50 %10.4f ms   p%g %10.4f ms\n", t, len(o.byType[t]), ms(median(o.byType[t])), p, ms(tl))
	}
}

func main() {
	var (
		name        = flag.String("workload", "", "workload to run ("+strings.Join(workloadNames(), ", ")+"); empty runs all of them, untraced then traced, in child processes")
		seed        = flag.Uint64("seed", 1, "seed of every generated input: datasets, request schedules, popularity draws")
		seconds     = flag.Float64("seconds", 12, "how long the timed part of a run measures")
		trace       = flag.Int("trace", 0, "1 runs the traced layer profile and prints the per-layer metrics instead of the end-to-end ones")
		clients     = flag.Int("clients", min(runtime.NumCPU(), 2), "closed-loop serve clients (at most nproc)")
		out         = flag.String("out", "", "with no -workload: write every result and the environment block to this JSON file")
		traceOut    = flag.String("trace-out", "", "with -trace 1: write the recorded spans to this file as JSON lines")
		checkRepeat = flag.Int("check-repeat", 0, "with no -workload: run two sets of this many seeds per workload, print each end-to-end metric's spread, and exit non-zero when a spread or the shift between the sets' medians exceeds the bound in BENCHMARK.json")
	)
	flag.Parse()
	cfg := config{seed: *seed, seconds: *seconds, clients: *clients, sz: fullSizes}
	if err := realMain(*name, cfg, *trace != 0, *out, *traceOut, *checkRepeat); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func realMain(name string, cfg config, traced bool, out, traceOut string, checkRepeat int) error {
	if cfg.clients < 1 || cfg.clients > runtime.NumCPU() {
		return fmt.Errorf("-clients %d: one process drives the load, so it takes between 1 and nproc=%d client goroutines", cfg.clients, runtime.NumCPU())
	}
	if cfg.seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if name != "" {
		return runOne(name, cfg, traced, traceOut)
	}
	if checkRepeat > 0 {
		return checkRepeatability(cfg, checkRepeat)
	}
	return runAll(cfg, out, traceOut)
}
