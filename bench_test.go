// Benchmarks regenerating every table and figure of the paper's
// evaluation (one benchmark per artefact; see DESIGN.md §4 for the
// mapping) plus the design-choice ablations of DESIGN.md §5.
//
// Each figure benchmark measures the full pipeline — dataset
// synthesis, capture, catalog build, classification and analysis — at
// a small scale so `go test -bench=. -benchmem` completes in minutes.
// The printed report values are the same ones EXPERIMENTS.md records.
package whereroam

import (
	"bytes"
	"io"
	"testing"
	"time"

	"whereroam/internal/core"
	"whereroam/internal/dataset"
	"whereroam/internal/experiments"
	"whereroam/internal/geo"
	"whereroam/internal/mccmnc"
	"whereroam/internal/radio"
	"whereroam/internal/rng"
	"whereroam/internal/signaling"
	"whereroam/internal/store"
)

// benchScale keeps each per-iteration pipeline run small.
const benchScale = 0.08

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	r, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("experiment %q not registered", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// A fresh session per iteration measures the full pipeline,
		// not a cached dataset.
		sess := experiments.NewSession(uint64(i+1), benchScale)
		rep := r.Run(sess)
		if len(rep.Values) == 0 {
			b.Fatalf("%s produced no values", id)
		}
	}
}

// §3.2 in-text table.
func BenchmarkTable1HMNOShares(b *testing.B) { benchExperiment(b, "t1") }

// Fig 2.
func BenchmarkFig2VisitedCountry(b *testing.B) { benchExperiment(b, "fig2") }

// Fig 3.
func BenchmarkFig3SignalingCDF(b *testing.B) { benchExperiment(b, "fig3l") }
func BenchmarkFig3VMNOCount(b *testing.B)    { benchExperiment(b, "fig3c") }
func BenchmarkFig3Switches(b *testing.B)     { benchExperiment(b, "fig3r") }

// §4.2/§4.3 in-text table.
func BenchmarkTable2Population(b *testing.B) { benchExperiment(b, "t2") }

// Fig 5–10.
func BenchmarkFig5HomeCountry(b *testing.B) { benchExperiment(b, "fig5") }
func BenchmarkFig6ClassLabel(b *testing.B)  { benchExperiment(b, "fig6") }
func BenchmarkFig7ActiveDays(b *testing.B)  { benchExperiment(b, "fig7") }
func BenchmarkFig8Gyration(b *testing.B)    { benchExperiment(b, "fig8") }
func BenchmarkFig9RATUsage(b *testing.B)    { benchExperiment(b, "fig9") }
func BenchmarkFig10Traffic(b *testing.B)    { benchExperiment(b, "fig10") }

// Fig 11 and 12, §4.4 in-text table.
func BenchmarkFig11SMIP(b *testing.B)            { benchExperiment(b, "fig11") }
func BenchmarkFig12Verticals(b *testing.B)       { benchExperiment(b, "fig12") }
func BenchmarkTable3SMIPProvenance(b *testing.B) { benchExperiment(b, "t3") }

// Ablations (DESIGN.md §5).
func BenchmarkAblationClassifierSteps(b *testing.B) { benchExperiment(b, "abl-classifier") }
func BenchmarkAblationGyration(b *testing.B)        { benchExperiment(b, "abl-gyration") }
func BenchmarkAblationVMNOPolicy(b *testing.B)      { benchExperiment(b, "abl-policy") }

// Extensions (§8 and DESIGN.md §4's future-work entries).
func BenchmarkExtRevenue(b *testing.B)      { benchExperiment(b, "ext-revenue") }
func BenchmarkExtTransparency(b *testing.B) { benchExperiment(b, "ext-transparency") }
func BenchmarkExtNBIoT(b *testing.B)        { benchExperiment(b, "ext-nbiot") }
func BenchmarkExtLatency(b *testing.B)      { benchExperiment(b, "ext-latency") }

// BenchmarkAblationCodec contrasts the preallocated streaming decoder
// (the gopacket DecodingLayerParser idiom) with the naive
// allocate-per-stream ReadAll path over the same byte stream.
func BenchmarkAblationCodec(b *testing.B) {
	txs := make([]signaling.Transaction, 20000)
	base := time.Date(2018, 11, 19, 0, 0, 0, 0, time.UTC)
	sim := mccmnc.MustParse("21407")
	visited := mccmnc.MustParse("23410")
	for i := range txs {
		txs[i] = signaling.Transaction{
			Device:    DeviceID(i),
			Time:      base.Add(time.Duration(i) * time.Second),
			SIM:       sim,
			Visited:   visited,
			Procedure: signaling.ProcUpdateLocation,
			RAT:       radio.RAT4G,
		}
	}
	var buf bytes.Buffer
	if err := signaling.WriteAll(&buf, txs); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()

	b.Run("preallocated", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := signaling.NewReader(bytes.NewReader(data))
			var tx signaling.Transaction
			n := 0
			for {
				if err := r.Read(&tx); err == io.EOF {
					break
				} else if err != nil {
					b.Fatal(err)
				}
				n++
			}
			if n != len(txs) {
				b.Fatalf("decoded %d", n)
			}
		}
	})
	b.Run("allocating", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			got, err := signaling.ReadAll(bytes.NewReader(data))
			if err != nil || len(got) != len(txs) {
				b.Fatalf("decoded %d, err %v", len(got), err)
			}
		}
	})
}

// BenchmarkAblationGyrationMetric isolates the metric cost itself
// (weighted vs unweighted) apart from the experiment harness.
func BenchmarkAblationGyrationMetric(b *testing.B) {
	src := rng.New(1)
	visits := make([]geo.Visit, 200)
	for i := range visits {
		visits[i] = geo.Visit{
			At:     geo.Point{Lat: 51 + src.Float64(), Lon: -1 + src.Float64()},
			Weight: 1 + src.Float64()*100,
		}
	}
	b.Run("weighted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = geo.Gyration(visits)
		}
	})
	b.Run("unweighted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = geo.GyrationUnweighted(visits)
		}
	})
}

// benchPipeline measures the synthesis → catalog → classification
// chain at a fixed worker count. The serial/parallel pair quantifies
// the sharded engine's speedup instead of asserting it; both paths
// run the same chunked code over the same shard boundaries, so the
// comparison isolates parallelism itself.
func benchPipeline(b *testing.B, workers int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := dataset.DefaultMNOConfig()
		cfg.Seed = uint64(i + 1)
		cfg.Devices = int(float64(cfg.Devices) * benchScale * 4)
		cfg.Workers = workers
		ds := dataset.GenerateMNO(cfg)
		sums := ds.Catalog.SummariesWorkers(ds.GSMA, workers)
		results := core.NewClassifier().ClassifyWorkers(sums, workers)
		if len(results) != len(sums) || len(sums) == 0 {
			b.Fatalf("pipeline produced %d results for %d summaries", len(results), len(sums))
		}
	}
}

func BenchmarkPipelineSerial(b *testing.B)   { benchPipeline(b, 1) }
func BenchmarkPipelineParallel(b *testing.B) { benchPipeline(b, 0) }

// The raw-capture path (per-event synthesis through probe taps into
// the sharded catalog builder) is the heaviest per-device workload;
// its pair tracks the builder sharding.
func benchRawCapture(b *testing.B, workers int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := dataset.DefaultSMIPConfig()
		cfg.Seed = uint64(i + 1)
		cfg.NativeMeters = 1200
		cfg.RoamingMeters = 800
		cfg.Workers = workers
		ds, _ := dataset.GenerateSMIPRaw(cfg)
		if len(ds.Catalog.Records) == 0 {
			b.Fatal("raw capture built an empty catalog")
		}
	}
}

func BenchmarkRawCaptureSerial(b *testing.B)   { benchRawCapture(b, 1) }
func BenchmarkRawCaptureParallel(b *testing.B) { benchRawCapture(b, 0) }

// The streaming twin of the raw-capture pair: the same capture walk
// with no collectors riding along, so nothing materializes. Run with
// -benchmem:
// the bytes/op gap against BenchmarkRawCapture* is the materialized
// capture the streaming path never allocates; cmd/benchpipe
// additionally records the heap high-water marks.
func benchStreamCapture(b *testing.B, workers int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cfg := dataset.DefaultSMIPConfig()
		cfg.Seed = uint64(i + 1)
		cfg.NativeMeters = 1200
		cfg.RoamingMeters = 800
		cfg.Workers = workers
		if ds := dataset.GenerateSMIPStreaming(cfg); len(ds.Catalog.Records) == 0 {
			b.Fatal("streaming capture built an empty catalog")
		}
	}
}

func BenchmarkStreamCaptureSerial(b *testing.B)   { benchStreamCapture(b, 1) }
func BenchmarkStreamCaptureParallel(b *testing.B) { benchStreamCapture(b, 0) }

// BenchmarkStoreReplay measures rebuilding the devices-catalog from a
// segmented archive (internal/store), full versus day-pruned. The
// archive is written once outside the timer in the mediation-feed
// shape (time-ordered), so segments are day-correlated and the pruned
// replay demonstrates what the footer index buys: whole segments
// skipped unread.
func BenchmarkStoreReplay(b *testing.B) {
	cfg := dataset.DefaultSMIPConfig()
	cfg.NativeMeters = 1200
	cfg.RoamingMeters = 800
	cfg.Workers = 0
	_, raw := dataset.GenerateSMIPRaw(cfg)
	dir := b.TempDir()
	w, err := store.NewWriter(dir, store.Meta{Host: cfg.Host, Start: cfg.Start, Days: cfg.Days}, 4096)
	if err != nil {
		b.Fatal(err)
	}
	for i := range raw.Records {
		if err := w.Append(raw.Records[i]); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	rep, err := store.Open(dir)
	if err != nil {
		b.Fatal(err)
	}

	run := func(b *testing.B, f store.Query) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cat, stats, err := rep.Replay(f, 0)
			if err != nil {
				b.Fatal(err)
			}
			if len(cat.Records) == 0 || stats.RecordsKept == 0 {
				b.Fatal("replay produced an empty catalog")
			}
		}
	}
	b.Run("full", func(b *testing.B) { run(b, store.Query{}) })
	b.Run("pruned", func(b *testing.B) { run(b, store.Query{}.Days(cfg.Days/2, cfg.Days/2+1)) })
}

// BenchmarkEndToEnd runs every registered experiment once per
// iteration over a shared session — the cost of `roamrepro all`.
func BenchmarkEndToEnd(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sess := experiments.NewSession(uint64(i+1), benchScale)
		for _, r := range experiments.All() {
			if rep := r.Run(sess); len(rep.Values) == 0 {
				b.Fatalf("%s empty", r.ID)
			}
		}
	}
}
