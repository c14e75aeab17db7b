package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"whereroam/internal/catalog"
	"whereroam/internal/cdrs"
	"whereroam/internal/core"
	"whereroam/internal/experiments"
	"whereroam/internal/identity"
	"whereroam/internal/serve"
	"whereroam/internal/store"
)

// tracedLayers are the layers the benchmark can put a span around
// from outside the program. cdrs, pipeline and obs only run inside
// calls into the others, so they have isolated probes and no share.
var tracedLayers = []string{"dataset", "experiments", "catalog", "core", "ingest", "store", "serve", "bench"}

// profile is one traced run. Whatever workload is selected, it runs
// all four at reduced count with the span recorder on — each after
// the same ops untraced — plus the isolated layer probes, so every
// per-layer metric is measured in every traced run. The selected
// workload only decides which trace the trace.* metrics summarize.
type profile struct {
	cfg     config
	root    string
	metrics map[string]metric
	o       *outcome // attempted, failed and problems across the profile

	recs     map[string]*recorder     // spans per workload
	untraced map[string]time.Duration // wall of the ops below with tracing off
	traced   map[string]time.Duration // wall of the same ops with tracing on
	selfBase map[string]time.Duration // untraced time the trace's layer self times should add up to
}

func (p *profile) set(name string, value float64, unit string) {
	p.metrics[name] = metric{value, unit}
}

// timed runs fn reps times and returns the median wall time and the
// last run's allocation count.
func timed(reps int, fn func()) (time.Duration, uint64) {
	var took []time.Duration
	var allocs uint64
	for i := 0; i < reps; i++ {
		a0 := readMetric(metricMallocs)
		t0 := time.Now()
		fn()
		took = append(took, time.Since(t0))
		allocs = readMetric(metricMallocs) - a0
	}
	return median(took), allocs
}

func perSecond(n int, d time.Duration) float64 { return float64(n) / d.Seconds() }

func sum(ds []time.Duration) (total time.Duration) {
	for _, d := range ds {
		total += d
	}
	return total
}

// liveHeap is the heap still reachable after two collections.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	return readMetric(metricHeap)
}

func runProfile(name string, cfg config, traceOut string) (*result, error) {
	root, err := workRoot()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	p := &profile{
		cfg: cfg, root: root, metrics: map[string]metric{}, o: &outcome{},
		recs: map[string]*recorder{}, untraced: map[string]time.Duration{}, traced: map[string]time.Duration{},
		selfBase: map[string]time.Duration{},
	}
	for _, w := range workloads {
		p.recs[w.name] = newRecorder()
	}
	p.batch()
	if err := p.feed(); err != nil {
		return nil, err
	}
	if err := p.serve(); err != nil {
		return nil, err
	}
	p.summarize(name)
	if traceOut != "" {
		if err := p.recs[name].writeTo(traceOut); err != nil {
			return nil, err
		}
	}
	for _, pr := range p.o.problems {
		fmt.Println("  CHECK FAILED:", pr)
	}
	return &result{Correct: p.o.failed == 0 && len(p.o.problems) == 0, Attempted: p.o.attempted, Failed: p.o.failed, Metrics: p.metrics}, nil
}

// summarize reduces the selected workload's trace: what tracing cost,
// where the traced ops' time went by layer, and how much of the
// untraced time of those ops the layer self times account for.
func (p *profile) summarize(name string) {
	byLayer := map[string]time.Duration{}
	var total time.Duration
	for span, d := range p.recs[name].selfTimes() {
		// A request span covers server work the client cannot see into;
		// the decomposed fills beside it carry the layer breakdown.
		if strings.HasPrefix(span, "bench.request_") {
			continue
		}
		byLayer[layerOf(span)] += d
		total += d
	}
	for _, l := range tracedLayers {
		p.set("trace.share."+l, float64(byLayer[l])/float64(total), "ratio")
	}
	p.set("trace.self_sum_ratio", float64(total-byLayer["bench"])/float64(p.selfBase[name]), "ratio")
	p.set("trace.overhead_ratio", float64(p.traced[name])/float64(p.untraced[name]), "ratio")
}

// batch traces one batch_repro pass and probes catalog, core and
// pipeline in isolation over the session's MNO dataset.
func (p *profile) batch() {
	const name = "batch_repro"
	seed, factor, rec := p.cfg.seed, p.cfg.sz.batchFactor, p.recs[name]
	p.o.attempted += 3
	reproPass(seed, factor, nil, 0) // the process's cold pass, which neither side of the overhead ratio should pay
	t0 := time.Now()
	want, _, problems := reproPass(seed, factor, nil, 0)
	p.untraced[name] = time.Since(t0)
	before := liveHeap()
	t0 = time.Now()
	got, slowest, traceProblems := reproPass(seed, factor, rec, 1)
	p.traced[name] = time.Since(t0)
	p.set("experiments.retained_mib_per_session", (float64(liveHeap())-float64(before))/(1<<20), "MiB")
	if got != want {
		problems = append(problems, "report digest differs between the untraced and the traced pass")
	}
	if problems = append(problems, traceProblems...); len(problems) > 0 {
		p.o.fail("batch_repro: %v", problems)
	}
	p.selfBase[name] = p.untraced[name]

	var runners time.Duration
	for _, r := range experiments.All() {
		took, _ := rec.named("experiments." + r.ID)
		runners += sum(took)
	}
	p.set("experiments.runners_s", runners.Seconds(), "s")
	p.set("experiments.slowest_runner_s", slowest.Seconds(), "s")
	for _, ds := range []string{"m2m", "mno", "smip", "federation"} {
		took, _ := rec.named("dataset." + ds)
		p.set("dataset."+ds+"_s", sum(took).Seconds(), "s")
	}

	workers := runtime.NumCPU()
	mno := experiments.NewSessionWorkers(seed, factor, 0).MNO()
	var sums []catalog.Summary
	took, allocs := timed(9, func() { sums = mno.Catalog.SummariesWorkers(mno.GSMA, workers) })
	devices := float64(len(sums))
	p.set("catalog.summaries_ms", ms(took), "ms")
	p.set("catalog.summaries_allocs_per_device", float64(allocs)/devices, "count")
	serial, _ := timed(9, func() { mno.Catalog.SummariesWorkers(mno.GSMA, 1) })
	p.set("pipeline.summaries_speedup", float64(serial)/float64(took), "ratio")
	var results []core.Result
	took, allocs = timed(9, func() { results = core.NewClassifier().ClassifyWorkers(sums, workers) })
	p.set("core.classify_ms", ms(took), "ms")
	p.set("core.classify_allocs_per_device", float64(allocs)/devices, "count")
	took, _ = timed(9, func() {
		if _, err := core.Validate(results, mno.Truth); err != nil {
			p.o.problem("core.Validate: %v", err)
		}
	})
	p.set("core.validate_ms", ms(took), "ms")
}

// feed traces one feed_archive pass, one sink at a time, and probes
// the codec, the serial builder and replay parallelism over the same
// records.
func (p *profile) feed() error {
	const name = "feed_archive"
	rec, sz := p.recs[name], p.cfg.sz
	var f *feed
	t0 := time.Now()
	f = genFeed(p.cfg.seed, sz)
	p.set("dataset.feed_gen_s", time.Since(t0).Seconds(), "s")
	n := len(f.recs)
	if n == 0 {
		return errors.New("the feed generator produced no records")
	}

	p.o.attempted += 3
	var plain *archived
	var problems []string
	var err error
	for i := 0; i < 2; i++ { // the first pass only warms the process
		if plain, problems, err = archivePass(f, sz, p.root, nil, nil, 0); err != nil {
			return err
		}
		os.RemoveAll(filepath.Dir(plain.dir))
	}
	split, traceProblems, err := archivePass(f, sz, p.root, nil, rec, 1)
	if err != nil {
		return err
	}
	defer os.RemoveAll(filepath.Dir(split.dir))
	if problems = append(problems, traceProblems...); len(problems) > 0 {
		p.o.fail("feed_archive: %v", problems)
	}
	p.untraced[name], p.traced[name], p.selfBase[name] = plain.took, split.took, plain.took

	step := func(span string) (time.Duration, float64) {
		took, allocs := rec.named(span)
		return took[0], float64(allocs[0]) / float64(n)
	}
	took, allocs := step("store.write")
	p.set("store.write_records_per_s", perSecond(n, took), "1/s")
	p.set("store.write_allocs_per_record", allocs, "count")
	p.set("store.segments_sealed", float64(split.segments), "count")
	routed, _ := step("ingest.route_build")
	p.set("ingest.route_build_records_per_s", perSecond(n, routed), "1/s")
	took, allocs = step("store.compact")
	p.set("store.compact_records_per_s", perSecond(n, took), "1/s")
	p.set("store.compact_allocs_per_record", allocs, "count")
	p.set("store.compact_passes", float64(split.compact.Passes), "count")
	took, _ = step("store.verify")
	p.set("store.verify_records_per_s", perSecond(n, took), "1/s")
	took, allocs = step("store.replay")
	p.set("store.replay_full_records_per_s", perSecond(n, took), "1/s")
	p.set("store.replay_allocs_per_record", allocs, "count")
	p.set("store.stored_bytes_per_record", float64(split.storedBytes)/float64(n), "B")

	serial, _ := timed(1, func() {
		b := catalog.NewBuilder(f.meta.Host, f.meta.Start, f.meta.Days, nil)
		for i := range f.recs {
			b.AddRecord(f.recs[i])
		}
		b.Build()
	})
	p.set("catalog.builder_records_per_s", perSecond(n, serial), "1/s")
	p.set("ingest.vs_serial_builder_ratio", float64(serial)/float64(routed), "ratio")

	var wire bytes.Buffer
	took, _ = timed(1, func() {
		if err = cdrs.WriteAll(&wire, f.recs); err != nil {
			p.o.problem("cdrs encode: %v", err)
		}
	})
	p.set("cdrs.encode_ns_per_record", float64(took.Nanoseconds())/float64(n), "ns")
	p.set("cdrs.wire_bytes_per_record", float64(wire.Len())/float64(n), "B")
	took, decAllocs := timed(1, func() {
		rd, decoded := cdrs.NewReader(bytes.NewReader(wire.Bytes())), 0
		var r cdrs.Record
		for err = rd.Read(&r); err == nil; err = rd.Read(&r) {
			decoded++
		}
		if err != io.EOF || decoded != n {
			p.o.problem("cdrs decode: %d of %d records, %v", decoded, n, err)
		}
	})
	p.set("cdrs.decode_ns_per_record", float64(took.Nanoseconds())/float64(n), "ns")
	p.set("cdrs.decode_allocs_per_record", float64(decAllocs)/float64(n), "count")

	rd, err := store.Open(split.dir)
	if err != nil {
		return err
	}
	replay := func(workers int) func() {
		return func() {
			if _, _, err := rd.Replay(store.Query{}, workers); err != nil {
				p.o.problem("replay with %d workers: %v", workers, err)
			}
		}
	}
	one, _ := timed(3, replay(1))
	all, _ := timed(3, replay(runtime.NumCPU()))
	p.set("pipeline.replay_speedup", float64(one)/float64(all), "ratio")
	return nil
}

// handle answers one key in process, without HTTP.
func handle(h http.Handler, k *key) (time.Duration, [sha256.Size]byte, int) {
	rr := httptest.NewRecorder()
	req := httptest.NewRequest("GET", k.path, nil)
	t0 := time.Now()
	h.ServeHTTP(rr, req)
	return time.Since(t0), sha256.Sum256(rr.Body.Bytes()), rr.Code
}

// decomposedFill rebuilds a day or device answer by calling, in the
// order a slice fill does, the public pieces the fill is made of.
func decomposedFill(fx *fixture, k *key, rec *recorder, op int) (*store.QueryPlan, *store.ReplayStats, *catalog.Catalog, error) {
	workers := runtime.NumCPU()
	root := rec.begin("bench.fill_"+k.typ, op, -1)
	defer rec.end(root)
	q := store.Query{}.Days(k.lo, k.hi)
	var dev identity.DeviceID
	var err error
	if k.typ == typDevice {
		if dev, err = serve.ParseDevice(k.dev); err != nil {
			return nil, nil, nil, err
		}
		q = store.Query{}.Device(dev)
	}
	var rd *store.Reader
	rec.do("store.open_"+k.typ, op, root, func() { rd, err = store.Open(fx.dirs[k.mount]) })
	if err != nil {
		return nil, nil, nil, err
	}
	var plan *store.QueryPlan
	rec.do("store.plan_"+k.typ, op, root, func() { plan = rd.Plan(q) })
	var cat *catalog.Catalog
	var stats *store.ReplayStats
	rec.do("store.replay_"+k.typ, op, root, func() { cat, stats, err = rd.Replay(q, workers) })
	if err != nil {
		return nil, nil, nil, err
	}
	var sums []catalog.Summary
	rec.do("catalog.summaries_"+k.typ, op, root, func() { sums = cat.SummariesWorkers(nil, workers) })
	rec.do("core.classify_"+k.typ, op, root, func() { core.NewClassifier().ClassifyWorkers(sums, workers) })
	rec.do("core.label_"+k.typ, op, root, func() {
		labeler := core.NewLabeler(cat.Host)
		for i := range sums {
			labeler.LabelSummary(&sums[i])
		}
	})
	var view any
	rec.do("serve.view_"+k.typ, op, root, func() {
		if k.typ == typDay {
			view = serve.ComputeDaySlice(k.mount, k.lo, k.hi, cat)
		} else {
			view, _ = serve.ComputeDeviceView(dev, cat, workers)
		}
	})
	rec.do("serve.json_"+k.typ, op, root, func() { _, err = json.Marshal(view) })
	return plan, stats, cat, err
}

func medianNamed(rec *recorder, span string) float64 {
	took, _ := rec.named(span)
	return ms(median(took))
}

// clock books the wall time of one round of a workload's reduced ops
// on the side of the overhead ratio the recorder puts it on.
func (p *profile) clock(name string, rec *recorder, t0 time.Time) {
	if rec == nil {
		p.untraced[name] = time.Since(t0)
	} else {
		p.traced[name] = time.Since(t0)
	}
}

// merge adds a serve section's request counts and failed checks to
// the profile's.
func (p *profile) merge(o *outcome) {
	p.o.attempted += o.attempted
	p.o.failed += o.failed
	p.o.problems = append(p.o.problems, o.problems...)
}

// dayFill is one sampled day key with the catalog its decomposed fill
// replayed, which the warm section computes views over.
type dayFill struct {
	k   *key
	cat *catalog.Catalog
}

// serve traces the two serve workloads over one fixture and measures
// the handlers in process, cold and warm, beside the decomposed fill.
func (p *profile) serve() error {
	fixRec := newRecorder()
	fx, err := buildFixture(p.cfg, p.root, fixRec)
	if err != nil {
		return err
	}
	gen, _ := fixRec.named("dataset.fed_archive_gen")
	p.set("dataset.fed_archive_gen_s", sum(gen).Seconds(), "s")
	p.set("dataset.fed_archive_records", float64(fx.records), "count")
	ks := fx.keys()
	days, err := p.serveCold(fx, ks)
	if err != nil {
		return err
	}
	return p.serveWarm(fx, ks, days)
}

// serveCold runs serve_cold's laps — a warm-up, one untraced, one
// traced — against the small cache, then answers one day and device
// key in eight (and every stats key) through a cold in-process
// handler beside its decomposed fill.
func (p *profile) serveCold(fx *fixture, ks *keySet) ([]dayFill, error) {
	const name = "serve_cold"
	cfg, rec := p.cfg, p.recs[name]
	cold := &outcome{byType: map[string][]time.Duration{}}
	sr, err := startServe(fx, ks, cfg.sz.coldCacheBytes, cfg.clients, nil)
	if err != nil {
		return nil, err
	}
	for lap, r := range []*recorder{nil, nil, rec} {
		sr.lg.rec = r
		t0 := time.Now()
		replies := sr.coldLap(cfg.seed, lap, cfg.clients)
		p.clock(name, r, t0)
		for _, r := range replies {
			cold.score(r, sr.seen)
		}
	}
	served, cs := sr.seen, sr.srv.CacheStats()
	sr.close()
	p.merge(cold)
	p.set("serve.cold_cache_hit_ratio", float64(cs.Hits)/float64(cs.Hits+cs.Misses+cs.Waits), "ratio")
	p.set("serve.cold_cache_fills", float64(cs.Fills), "count")
	p.set("serve.cold_cache_evictions", float64(cs.Evictions), "count")
	p.set("serve.cold_cache_slices_per_mib", float64(cs.Entries)/(float64(cs.Bytes)/(1<<20)), "1/MiB")
	for _, typ := range []string{typDay, typDevice, typStats} {
		p.set("serve.cold_"+typ+"_p50_ms", ms(median(cold.byType[typ])), "ms")
	}
	for _, typ := range []string{typDay, typDevice} {
		tl, pct := tail(cold.byType[typ])
		p.set("serve.cold_"+typ+"_tail_ms", ms(tl), "ms")
		fmt.Printf("  note serve.cold_%s_tail_ms is p%g of %d samples\n", typ, pct, len(cold.byType[typ]))
	}

	srv, err := fx.newServer(cfg.sz.coldCacheBytes, true)
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	handler := map[string][]time.Duration{}
	var daySelected, dayTotal, devSelected, devTotal int
	var dayBytes, dayKept int64
	var days []dayFill
	sampled := map[string]int{}
	for _, id := range ks.cold {
		k := &ks.all[id]
		sampled[k.typ]++
		if k.typ != typStats && sampled[k.typ]%8 != 1 {
			continue
		}
		answer := func() {
			took, digest, code := handle(h, k)
			p.o.attempted++
			if code != http.StatusOK || digest != served[k.id] {
				p.o.fail("in-process GET %s: status %d, or a body that differs from the one served over HTTP", k.path, code)
			}
			handler[k.typ] = append(handler[k.typ], took)
			if k.typ != typStats {
				p.selfBase[name] += took
			}
		}
		rebuild := func() error {
			plan, stats, cat, err := decomposedFill(fx, k, rec, k.id)
			if err != nil {
				return err
			}
			if k.typ == typDay {
				daySelected, dayTotal = daySelected+len(plan.Selected), dayTotal+plan.SegmentsTotal
				dayBytes, dayKept = dayBytes+stats.BytesRead, dayKept+stats.RecordsKept
				days = append(days, dayFill{k, cat})
			} else {
				devSelected, devTotal = devSelected+len(plan.Selected), devTotal+plan.SegmentsTotal
			}
			return nil
		}
		// Whichever of the two runs second finds the key's segments in
		// the page cache, so they take turns going first.
		switch {
		case k.typ == typStats:
			answer()
		case sampled[k.typ]%16 == 1:
			answer()
			err = rebuild()
		default:
			err = rebuild()
			answer()
		}
		if err != nil {
			return nil, err
		}
	}
	for _, typ := range []string{typDay, typDevice, typStats} {
		p.set("serve.handler_"+typ+"_ms", ms(median(handler[typ])), "ms")
	}
	p.set("store.open_ms", medianNamed(rec, "store.open_day"), "ms")
	p.set("store.day_selected_ratio", float64(daySelected)/float64(dayTotal), "ratio")
	p.set("store.device_selected_ratio", float64(devSelected)/float64(devTotal), "ratio")
	p.set("store.day_fill_replay_ms", medianNamed(rec, "store.replay_day"), "ms")
	p.set("store.device_fill_replay_ms", medianNamed(rec, "store.replay_device"), "ms")
	p.set("store.bytes_read_per_kept_record", float64(dayBytes)/float64(dayKept), "B")
	p.set("catalog.fill_summaries_ms", medianNamed(rec, "catalog.summaries_day"), "ms")
	p.set("core.fill_classify_ms", medianNamed(rec, "core.classify_day"), "ms")
	p.set("core.fill_label_ms", medianNamed(rec, "core.label_day"), "ms")
	p.set("serve.view_day_ms", medianNamed(rec, "serve.view_day"), "ms")
	p.set("serve.json_day_ms", medianNamed(rec, "serve.json_day"), "ms")
	p.set("serve.fill_glue_ms", ms(median(handler[typDay]))-medianNamed(rec, "bench.fill_day"), "ms")
	return days, nil
}

// serveWarm runs serve_warm's bursts — a warm-up, one untraced, one
// traced — against a pre-filled cache that holds everything, then
// measures the warm handlers in process, the two public pieces of a
// warm day answer (the view and its JSON), and what attaching Metrics
// and Tracer costs.
func (p *profile) serveWarm(fx *fixture, ks *keySet, days []dayFill) error {
	const name = "serve_warm"
	cfg, rec := p.cfg, p.recs[name]
	warm := &outcome{byType: map[string][]time.Duration{}}
	sr, err := startServe(fx, ks, cfg.sz.warmCacheBytes, cfg.clients, nil)
	if err != nil {
		return err
	}
	defer sr.close()
	sr.prefill(warm, cfg.clients)
	before := sr.srv.CacheStats()
	perClient := cfg.sz.tracedRequests / cfg.clients
	for _, r := range []*recorder{nil, nil, rec} {
		sr.lg.rec = r
		t0 := time.Now()
		replies := sr.warmBurst(cfg.seed, cfg.clients, func(i int) bool { return i >= perClient })
		p.clock(name, r, t0)
		for _, r := range replies {
			warm.score(r, sr.seen)
		}
	}
	p.merge(warm)
	cs := sr.srv.CacheStats()
	hits, lookups := cs.Hits-before.Hits, cs.Hits+cs.Misses+cs.Waits-before.Hits-before.Misses-before.Waits
	p.set("serve.warm_cache_hit_ratio", float64(hits)/float64(lookups), "ratio")
	p.set("serve.warm_cache_resident_mib", float64(cs.Bytes)/(1<<20), "MiB")
	for _, typ := range []string{typDay, typDevice, typStats, typAnalysis, typCompare} {
		p.set("serve.warm_"+typ+"_p50_ms", ms(median(warm.byType[typ])), "ms")
	}
	for _, typ := range []string{typDay, typDevice} {
		p.set("serve.warm_"+typ+"_p99_ms", ms(percentile(sortedCopy(warm.byType[typ]), 99)), "ms")
	}

	h := sr.srv.Handler()
	const reps = 20
	var device []time.Duration
	for i, id := range ks.byKind[typDevice][fx.sites[0]] {
		if i%8 != 0 {
			continue
		}
		for j := 0; j < reps; j++ {
			took, _, _ := handle(h, &ks.all[id])
			device = append(device, took)
		}
	}
	p.set("serve.handler_warm_device_ms", ms(median(device)), "ms")
	p.set("serve.http_overhead_ms", ms(median(warm.byType[typDevice]))-ms(median(device)), "ms")

	bare, err := fx.newServer(cfg.sz.warmCacheBytes, false)
	if err != nil {
		return err
	}
	hb := bare.Handler()
	var with, without []time.Duration
	for _, d := range days {
		handle(hb, d.k) // fill
		for j := 0; j < reps; j++ {
			took, digest, code := handle(h, d.k)
			if code != http.StatusOK || digest != sr.seen[d.k.id] {
				p.o.problem("warm in-process GET %s: status %d, or a body that differs from the one served over HTTP", d.k.path, code)
			}
			with = append(with, took)
			took, _, _ = handle(hb, d.k)
			without = append(without, took)

			op := d.k.id*reps + j
			root := rec.begin("bench.warm_day", op, -1)
			var view *serve.DaySlice
			rec.do("serve.view_day", op, root, func() { view = serve.ComputeDaySlice(d.k.mount, d.k.lo, d.k.hi, d.cat) })
			rec.do("serve.json_day", op, root, func() { _, err = json.Marshal(view) })
			rec.end(root)
			if err != nil {
				return err
			}
		}
	}
	p.selfBase[name] = sum(with)
	p.set("serve.handler_warm_day_ms", ms(median(with)), "ms")
	p.set("obs.serve_overhead_ratio", float64(median(with))/float64(median(without)), "ratio")
	return nil
}
