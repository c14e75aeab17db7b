// Command benchpipe measures the serial-vs-parallel pipeline pairs
// (synthesis → catalog → classification, the raw per-event capture
// path, and its no-capture-held twin) and writes the results as
// BENCH_pipeline.json (schema: internal/benchfmt), the
// perf-trajectory artefact cmd/benchdiff gates CI against. Besides
// ns/op it records each configuration's heap high-water mark, which
// is where the streaming entry point earns its keep: the kept
// capture's peak grows linearly with the capture while the streaming
// build holds only builder state. The gen_fleet pair
// replays that comparison for synthesis itself at 10x the benchmark
// scale — GenerateMNO materializing the whole fleet and catalog
// versus StreamMNO draining into a sink — and the resulting
// "gen_heap" peak ratio is gated machine-independently.
//
// Usage:
//
//	benchpipe                       # defaults: scale 0.32, all cores
//	benchpipe -scale 1.0 -out BENCH_pipeline.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
	"time"

	"whereroam/internal/benchfmt"
	"whereroam/internal/catalog"
	"whereroam/internal/cdrs"
	"whereroam/internal/core"
	"whereroam/internal/dataset"
	"whereroam/internal/serve"
	"whereroam/internal/store"
)

// heapPeak runs fn once and returns the peak heap growth it caused
// (benchfmt.StartHeapWatch's contract: max HeapAlloc sample during fn
// minus the post-GC pre-run baseline).
func heapPeak(fn func()) int64 {
	stop := benchfmt.StartHeapWatch()
	fn()
	return stop()
}

func measure(workers int, fn func(workers int)) benchfmt.Artefact {
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fn(workers)
		}
	})
	return benchfmt.Artefact{
		NsPerOp:       r.NsPerOp(),
		AllocsPerOp:   r.AllocsPerOp(),
		BytesPerOp:    r.AllocedBytesPerOp(),
		Workers:       workers,
		Iterations:    r.N,
		Seconds:       float64(r.NsPerOp()) / 1e9,
		HeapPeakBytes: heapPeak(func() { fn(workers) }),
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchpipe: ")
	var (
		scale = flag.Float64("scale", 0.32, "population scale factor per iteration")
		out   = flag.String("out", "BENCH_pipeline.json", "output path")
	)
	flag.Parse()

	mnoPipeline := func(workers int) {
		cfg := dataset.DefaultMNOConfig()
		cfg.Devices = int(float64(cfg.Devices) * *scale)
		cfg.Workers = workers
		ds := dataset.GenerateMNO(cfg)
		sums := ds.Catalog.SummariesWorkers(ds.GSMA, workers)
		if res := core.NewClassifier().ClassifyWorkers(sums, workers); len(res) == 0 {
			log.Fatal("pipeline produced no results")
		}
	}
	rawSMIP := func(workers int) dataset.SMIPConfig {
		cfg := dataset.DefaultSMIPConfig()
		cfg.NativeMeters = int(float64(cfg.NativeMeters) * *scale / 4)
		cfg.RoamingMeters = int(float64(cfg.RoamingMeters) * *scale / 4)
		cfg.Workers = workers
		return cfg
	}
	rawCapture := func(workers int) {
		if ds, _ := dataset.GenerateSMIPRaw(rawSMIP(workers)); len(ds.Catalog.Records) == 0 {
			log.Fatal("raw capture built an empty catalog")
		}
	}
	streamCapture := func(workers int) {
		if ds := dataset.GenerateSMIPStreaming(rawSMIP(workers)); len(ds.Catalog.Records) == 0 {
			log.Fatal("streaming capture built an empty catalog")
		}
	}

	// Store replay pair: archive the capture's CDR/xDR plane once, in
	// the mediation-feed shape (time-ordered, so segments are
	// day-correlated), then measure the full and the day-pruned
	// catalog rebuild — the "archived once, analyzed many times"
	// workload the store exists for.
	archDir, err := os.MkdirTemp("", "benchpipe-store-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(archDir)
	tmpRoot := archDir
	archCfg := rawSMIP(0)
	_, archRaw := dataset.GenerateSMIPRaw(archCfg)
	archDir = filepath.Join(archDir, "feed")
	aw, err := store.NewWriter(archDir, store.Meta{Host: archCfg.Host, Start: archCfg.Start, Days: archCfg.Days}, 4096)
	if err != nil {
		log.Fatal(err)
	}
	for i := range archRaw.Records {
		if err := aw.Append(archRaw.Records[i]); err != nil {
			log.Fatal(err)
		}
	}
	if err := aw.Close(); err != nil {
		log.Fatal(err)
	}
	rply, err := store.Open(archDir)
	if err != nil {
		log.Fatal(err)
	}
	replay := func(q store.Query) func(int) {
		return func(workers int) {
			cat, _, err := rply.Replay(q, workers)
			if err != nil || len(cat.Records) == 0 {
				log.Fatalf("store replay failed: %v (%d records)", err, len(cat.Records))
			}
		}
	}
	replayFull := replay(store.Query{})
	replayPruned := replay(store.Query{}.Days(archCfg.Days/2, archCfg.Days/2+1))

	rep := benchfmt.Report{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Scale:      *scale,
		Artefacts:  map[string]benchfmt.Artefact{},
		Speedups:   map[string]float64{},
		MemRatios:  map[string]float64{},
		Ratios:     map[string]float64{},
	}
	for _, pair := range []struct {
		name string
		fn   func(int)
	}{
		{"pipeline", mnoPipeline},
		{"raw_capture", rawCapture},
		{"raw_capture_stream", streamCapture},
		{"store_replay_full", replayFull},
		{"store_replay_pruned", replayPruned},
	} {
		serial := measure(1, pair.fn)
		parallel := measure(0, pair.fn)
		parallel.Workers = rep.GoMaxProcs
		rep.Artefacts[pair.name+"_serial"] = serial
		rep.Artefacts[pair.name+"_parallel"] = parallel
		rep.Speedups[pair.name] = float64(serial.NsPerOp) / float64(parallel.NsPerOp)
		log.Printf("%s: serial %v ns/op (peak %d MiB), parallel(%d) %v ns/op (peak %d MiB), speedup %.2fx",
			pair.name, serial.NsPerOp, serial.HeapPeakBytes>>20,
			rep.GoMaxProcs, parallel.NsPerOp, parallel.HeapPeakBytes>>20,
			rep.Speedups[pair.name])
	}

	// Out-of-core generation pair, measured at 10x the benchmark scale
	// — the population the materialized path starts to hurt at. Both
	// sides run once at full parallelism with the heap sampler on; the
	// out-of-core side streams into a counting sink, so its peak is
	// the counting pre-pass plus the bounded in-flight window rather
	// than the whole fleet and catalog.
	genCfg := dataset.DefaultMNOConfig()
	genCfg.Devices = int(float64(genCfg.Devices) * *scale * 10)
	genCfg.Workers = 0
	genMeasure := func(fn func()) benchfmt.Artefact {
		var ns int64
		peak := heapPeak(func() {
			t0 := time.Now()
			fn()
			ns = time.Since(t0).Nanoseconds()
		})
		return benchfmt.Artefact{
			NsPerOp:       ns,
			Workers:       rep.GoMaxProcs,
			Iterations:    1,
			Seconds:       float64(ns) / 1e9,
			HeapPeakBytes: peak,
		}
	}
	genMat := genMeasure(func() {
		ds := dataset.GenerateMNO(genCfg)
		if len(ds.Catalog.Records) == 0 {
			log.Fatal("materialized generation built an empty catalog")
		}
		runtime.KeepAlive(ds)
	})
	genOOC := genMeasure(func() {
		var recs int64
		out := dataset.StreamMNO(genCfg, dataset.MNOSink{
			Record: func(catalog.DailyRecord) { recs++ },
		})
		if recs == 0 || out.Records != recs {
			log.Fatalf("out-of-core generation streamed %d records (reported %d)", recs, out.Records)
		}
	})
	rep.Artefacts["gen_fleet_materialized"] = genMat
	rep.Artefacts["gen_fleet_outofcore"] = genOOC
	if genOOC.HeapPeakBytes > 0 {
		// Peak-over-peak, bigger is better: how many times more heap
		// the materialized build needs than the out-of-core one for
		// the same output. Machine-independent (same process, same
		// population), so it belongs in Ratios and stays gated across
		// a GOMAXPROCS mismatch.
		rep.Ratios["gen_heap"] = float64(genMat.HeapPeakBytes) / float64(genOOC.HeapPeakBytes)
		log.Printf("gen at 10x: materialized peak %d MiB, out-of-core peak %d MiB, ratio %.2fx",
			genMat.HeapPeakBytes>>20, genOOC.HeapPeakBytes>>20, rep.Ratios["gen_heap"])
	}

	// Pruning effectiveness, from the SERIAL pair so the ratio is
	// machine-independent (full and pruned decode the same archive in
	// the same process; core count cancels out). It goes into Ratios,
	// which benchdiff gates even across a GOMAXPROCS mismatch — so an
	// index regression that stops segments from being skipped fails CI
	// no matter what machine recorded the baseline.
	fullArt := rep.Artefacts["store_replay_full_serial"]
	prunedArt := rep.Artefacts["store_replay_pruned_serial"]
	if prunedArt.NsPerOp > 0 {
		rep.Ratios["store_prune"] = float64(fullArt.NsPerOp) / float64(prunedArt.NsPerOp)
		log.Printf("store pruned replay: %.2fx faster than full replay (serial pair)",
			rep.Ratios["store_prune"])
	}

	// Compaction effectiveness: archive the same feed in tap order
	// (device-major, the worst case for the day index — every segment
	// spans the whole window), compact it into the time-ordered
	// mediation shape, and compare the day-pruned replay on each. The
	// ratio is a within-process serial pair, so it is
	// machine-independent and gated across GOMAXPROCS mismatches.
	tapRecs := make([]int, len(archRaw.Records))
	for i := range tapRecs {
		tapRecs[i] = i
	}
	sort.SliceStable(tapRecs, func(a, b int) bool {
		return uint64(archRaw.Records[tapRecs[a]].Device) < uint64(archRaw.Records[tapRecs[b]].Device)
	})
	tapDir := filepath.Join(tmpRoot, "tap")
	tw, err := store.NewWriter(tapDir, store.Meta{Host: archCfg.Host, Start: archCfg.Start, Days: archCfg.Days}, 4096)
	if err != nil {
		log.Fatal(err)
	}
	for _, i := range tapRecs {
		if err := tw.Append(archRaw.Records[i]); err != nil {
			log.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		log.Fatal(err)
	}
	compactDir := filepath.Join(tmpRoot, "compacted")
	if _, err := store.Compact(compactDir, []string{tapDir}, store.CompactOptions{SegmentRecords: 4096}); err != nil {
		log.Fatal(err)
	}
	dayQ := store.Query{}.Days(archCfg.Days/2, archCfg.Days/2+1)
	replayOn := func(dir string, q store.Query) func(int) {
		r, err := store.Open(dir)
		if err != nil {
			log.Fatal(err)
		}
		return func(workers int) {
			cat, _, err := r.Replay(q, workers)
			if err != nil || len(cat.Records) == 0 {
				log.Fatalf("store replay of %s failed: %v (%d records)", dir, err, len(cat.Records))
			}
		}
	}
	tapPruned := measure(1, replayOn(tapDir, dayQ))
	compPruned := measure(1, replayOn(compactDir, dayQ))
	rep.Artefacts["store_replay_tap_pruned_serial"] = tapPruned
	rep.Artefacts["store_replay_compacted_pruned_serial"] = compPruned
	if compPruned.NsPerOp > 0 {
		rep.Ratios["store_compact"] = float64(tapPruned.NsPerOp) / float64(compPruned.NsPerOp)
		log.Printf("store compacted day replay: %.2fx faster than tap-order day replay (serial pair)",
			rep.Ratios["store_compact"])
	}

	// Bloom pruning effectiveness, on the shape range indexes cannot
	// help with: each device confined to one window day, written in
	// time order with small segments — every segment's device range
	// spans nearly the whole hash space, but each segment holds only
	// its day's devices. An exact-device replay with blooms skips the
	// other days' segments; without, it decodes them all. The 2x floor
	// is enforced here: below it the per-segment filters are not
	// earning their footer bytes.
	bloomDir := filepath.Join(tmpRoot, "bloomshape")
	bw, err := store.NewWriter(bloomDir, store.Meta{Host: archCfg.Host, Start: archCfg.Start, Days: archCfg.Days}, 256)
	if err != nil {
		log.Fatal(err)
	}
	var bloomDevs []cdrs.Record
	seenDev := map[uint64]bool{}
	for i := range archRaw.Records {
		rec := &archRaw.Records[i]
		day := int(rec.Time.Sub(archCfg.Start).Hours() / 24)
		if day != int(uint64(rec.Device)%uint64(archCfg.Days)) {
			continue
		}
		if err := bw.Append(*rec); err != nil {
			log.Fatal(err)
		}
		if !seenDev[uint64(rec.Device)] {
			seenDev[uint64(rec.Device)] = true
			bloomDevs = append(bloomDevs, *rec)
		}
	}
	if err := bw.Close(); err != nil {
		log.Fatal(err)
	}
	if len(bloomDevs) < 32 || bw.Segments() < 8 {
		log.Fatalf("bloom fixture too small: %d devices in %d segments", len(bloomDevs), bw.Segments())
	}
	bloomDevs = bloomDevs[:32]
	br, err := store.Open(bloomDir)
	if err != nil {
		log.Fatal(err)
	}
	if _, stats, err := br.Replay(store.Query{}.Device(bloomDevs[0].Device), 1); err != nil || stats.SegmentsPrunedBloom == 0 {
		log.Fatalf("bloom fixture never bloom-prunes (err %v, %d pruned by bloom of %d)",
			err, stats.SegmentsPrunedBloom, stats.SegmentsTotal)
	}
	bloomLookups := func(base store.Query) func(int) {
		return func(workers int) {
			for i := range bloomDevs {
				cat, _, err := br.Replay(base.Device(bloomDevs[i].Device), workers)
				if err != nil || len(cat.Records) == 0 {
					log.Fatalf("bloom lookup failed: %v (%d records)", err, len(cat.Records))
				}
			}
		}
	}
	withBloom := measure(1, bloomLookups(store.Query{}))
	withoutBloom := measure(1, bloomLookups(store.Query{}.WithoutBloom()))
	rep.Artefacts["store_device_lookup_bloom_serial"] = withBloom
	rep.Artefacts["store_device_lookup_nobloom_serial"] = withoutBloom
	rep.Ratios["store_prune_bloom"] = float64(withoutBloom.NsPerOp) / float64(withBloom.NsPerOp)
	log.Printf("store bloom device lookup: %.2fx faster than range-only (serial pair)",
		rep.Ratios["store_prune_bloom"])
	if rep.Ratios["store_prune_bloom"] < 2 {
		log.Fatalf("store_prune_bloom ratio %.2f below the 2x floor — per-segment blooms are not pruning",
			rep.Ratios["store_prune_bloom"])
	}

	// Manifest-v2 seal cost must stay O(1) in store size: append the
	// same feed through many small segments and compare the first
	// half's wall time with the second half's. A flat seal keeps the
	// ratio near 1; a regression to v1's full-manifest rewrite makes
	// the second half grow with segment count and the ratio shrink,
	// which the bigger-is-better gate catches.
	sealDir := filepath.Join(tmpRoot, "sealflat")
	sw, err := store.NewWriter(sealDir, store.Meta{Host: archCfg.Host, Start: archCfg.Start, Days: archCfg.Days}, 64)
	if err != nil {
		log.Fatal(err)
	}
	const sealSegs = 256
	half := sealSegs / 2 * 64
	sealHalf := func(offset int) int64 {
		t0 := time.Now()
		for i := 0; i < half; i++ {
			if err := sw.Append(archRaw.Records[(offset+i)%len(archRaw.Records)]); err != nil {
				log.Fatal(err)
			}
		}
		return time.Since(t0).Nanoseconds()
	}
	firstNs := sealHalf(0)
	secondNs := sealHalf(half)
	if err := sw.Close(); err != nil {
		log.Fatal(err)
	}
	rep.Ratios["store_seal_flat"] = float64(firstNs) / float64(secondNs)
	log.Printf("store seal cost: first %d segments %v ns, next %d segments %v ns, flatness %.2f",
		sealSegs/2, firstNs, sealSegs/2, secondNs, rep.Ratios["store_seal_flat"])

	// Serving layer: mount the same archive in an in-process roamd
	// read model (serial fills, so the artefacts stay gated against a
	// GOMAXPROCS=1 baseline) and measure warm request latency for the
	// two hot endpoints plus the cache's cold-vs-hit speedup. Warm
	// latencies are sampled after pre-warming every slice the sample
	// set touches, so the percentiles measure the served (cached) path
	// rather than a mix of replays and hits.
	srv := serve.New(serve.Config{Workers: 1})
	if err := srv.Mount("feed", archDir); err != nil {
		log.Fatal(err)
	}
	handler := srv.Handler()
	serveGet := func(path string) ([]byte, int64) {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		rec := httptest.NewRecorder()
		t0 := time.Now()
		handler.ServeHTTP(rec, req)
		ns := time.Since(t0).Nanoseconds()
		if rec.Code != http.StatusOK {
			log.Fatalf("GET %s: status %d: %s", path, rec.Code, rec.Body)
		}
		return rec.Body.Bytes(), ns
	}
	var devList struct {
		Devices []string `json:"devices"`
	}
	body, _ := serveGet("/v1/sites/feed/devices?limit=64")
	if err := json.Unmarshal(body, &devList); err != nil || len(devList.Devices) == 0 {
		log.Fatalf("serve device listing failed: %v (%d devices)", err, len(devList.Devices))
	}
	days := srv.Sites()[0].Days
	serveArtefact := func(name string, samples int, path func(i int) string) {
		for i := 0; i < samples; i++ { // pre-warm every slice key
			serveGet(path(i))
		}
		lat := make([]int64, samples)
		var total int64
		for i := range lat {
			_, ns := serveGet(path(i))
			lat[i] = ns
			total += ns
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		pct := func(p float64) int64 { // nearest-rank
			i := int(p*float64(samples)+0.5) - 1
			if i < 0 {
				i = 0
			}
			if i >= samples {
				i = samples - 1
			}
			return lat[i]
		}
		art := benchfmt.Artefact{
			NsPerOp:    total / int64(samples),
			P50Ns:      pct(0.50),
			P99Ns:      pct(0.99),
			QPS:        float64(samples) * 1e9 / float64(total),
			Workers:    1,
			Iterations: samples,
			Seconds:    float64(total) / 1e9,
		}
		rep.Artefacts[name] = art
		log.Printf("%s: p50 %d ns, p99 %d ns, %.0f qps (warm, serial)",
			name, art.P50Ns, art.P99Ns, art.QPS)
	}
	serveArtefact("serve_device_lookup", 2000, func(i int) string {
		return "/v1/sites/feed/devices/" + devList.Devices[i%len(devList.Devices)]
	})
	serveArtefact("serve_day_slice", 1000, func(i int) string {
		lo := i % days
		hi := lo + 1
		if hi >= days {
			hi = days - 1
			lo = hi - 1
		}
		return fmt.Sprintf("/v1/sites/feed/days?lo=%d&hi=%d", lo, hi)
	})

	// Cold-vs-hit ratio: the whole point of the slice cache is that a
	// cold stats request replays the archive while a warm one reads an
	// immutable slice. Minimum over a few runs on each side keeps the
	// estimator stable; the ratio is within-run and machine-independent,
	// so it goes into Ratios (gated across GOMAXPROCS mismatches) with a
	// hard 5x floor enforced here.
	var coldNs int64
	for i := 0; i < 3; i++ {
		fresh := serve.New(serve.Config{Workers: 1})
		if err := fresh.Mount("feed", archDir); err != nil {
			log.Fatal(err)
		}
		fh := fresh.Handler()
		req := httptest.NewRequest(http.MethodGet, "/v1/sites/feed/stats", nil)
		rec := httptest.NewRecorder()
		t0 := time.Now()
		fh.ServeHTTP(rec, req)
		ns := time.Since(t0).Nanoseconds()
		if rec.Code != http.StatusOK {
			log.Fatalf("cold stats: status %d: %s", rec.Code, rec.Body)
		}
		if coldNs == 0 || ns < coldNs {
			coldNs = ns
		}
	}
	var hitNs int64
	for i := 0; i < 200; i++ {
		if _, ns := serveGet("/v1/sites/feed/stats"); hitNs == 0 || ns < hitNs {
			hitNs = ns
		}
	}
	rep.Ratios["serve_cache"] = float64(coldNs) / float64(hitNs)
	log.Printf("serve cache: cold %d ns vs hit %d ns, ratio %.1fx", coldNs, hitNs, rep.Ratios["serve_cache"])
	if rep.Ratios["serve_cache"] < 5 {
		log.Fatalf("serve_cache ratio %.2f below the 5x floor — the slice cache is not earning its keep",
			rep.Ratios["serve_cache"])
	}

	// The headline memory comparison: the streaming ingest's peak
	// against the materialized capture's, both at full parallelism.
	batch := rep.Artefacts["raw_capture_parallel"]
	stream := rep.Artefacts["raw_capture_stream_parallel"]
	if batch.HeapPeakBytes > 0 {
		rep.MemRatios["raw_capture_stream_vs_batch"] = float64(stream.HeapPeakBytes) / float64(batch.HeapPeakBytes)
		log.Printf("streaming peak / batch peak = %.3f (%d MiB vs %d MiB)",
			rep.MemRatios["raw_capture_stream_vs_batch"],
			stream.HeapPeakBytes>>20, batch.HeapPeakBytes>>20)
	}

	if err := rep.Write(*out); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (GOMAXPROCS=%d)\n", *out, rep.GoMaxProcs)
}
