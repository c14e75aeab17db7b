package main

import (
	"crypto/sha256"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"whereroam/internal/catalog"
	"whereroam/internal/cdrs"
	"whereroam/internal/dataset"
	"whereroam/internal/ingest"
	"whereroam/internal/probe"
	"whereroam/internal/store"
)

// feed is the fixed in-memory mediation feed feed_archive persists:
// every CDR/xDR one streaming SMIP capture offers its archive sink.
type feed struct {
	recs []cdrs.Record
	meta store.Meta
}

// genFeed synthesizes the feed with a single worker, which makes the
// order records reach the collecting sink deterministic for a seed.
func genFeed(seed uint64, sz sizes) *feed {
	cfg := dataset.DefaultSMIPConfig()
	cfg.Seed = seed
	cfg.NativeMeters, cfg.RoamingMeters, cfg.Workers = sz.feedNative, sz.feedRoaming, 1
	f := &feed{meta: store.Meta{Host: cfg.Host, Start: cfg.Start, Days: cfg.Days}}
	cfg.ArchiveCDRs = func(r cdrs.Record) { f.recs = append(f.recs, r) }
	dataset.GenerateSMIPStreaming(cfg)
	return f
}

// digestOf hashes what write writes.
func digestOf(write func(io.Writer) error) ([sha256.Size]byte, error) {
	h := sha256.New()
	err := write(h)
	var d [sha256.Size]byte
	h.Sum(d[:0])
	return d, err
}

// digest hashes the feed's wire encoding.
func (f *feed) digest() ([sha256.Size]byte, error) {
	return digestOf(func(w io.Writer) error { return cdrs.WriteAll(w, f.recs) })
}

// archived is what one archive pass left behind and observed.
type archived struct {
	dir         string // the compacted store, kept until the caller removes the pass directory
	took        time.Duration
	segments    int // sealed by the tap-order writer
	compact     *store.CompactStats
	storedBytes int64
	replay      *store.ReplayStats
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		n += info.Size()
		return err
	})
	return n, err
}

// archivePass is one feed_archive op over a fresh directory under
// root: persist the feed in tap order while the catalog ingests it,
// compact the store into time order, verify it, replay it in full.
// The meter and the returned duration cover exactly those steps; the
// output checks that follow are untimed. With a recorder the fan-out
// is split into one pass per sink, so the writer and the ingest
// router each get a span of their own.
func archivePass(f *feed, sz sizes, root string, m *meter, rec *recorder, op int) (*archived, []string, error) {
	dir, err := os.MkdirTemp(root, "pass-")
	if err != nil {
		return nil, nil, err
	}
	tap, dst := filepath.Join(dir, "tap"), filepath.Join(dir, "compacted")
	workers := runtime.NumCPU()
	a := &archived{dir: dst}

	if m != nil {
		m.start()
	}
	t0 := time.Now()
	span := rec.begin("bench.archive_pass", op, -1)
	w, err := store.NewWriter(tap, f.meta, sz.segRecords)
	if err != nil {
		return nil, nil, err
	}
	in := ingest.NewCatalogIngester(catalog.NewShardedBuilder(f.meta.Host, f.meta.Start, f.meta.Days, nil, workers), 0)
	defer in.Close()
	var live *catalog.Catalog
	if rec == nil {
		sink := probe.Fanout(w.Sink(), in.OfferRecord)
		for i := range f.recs {
			sink(f.recs[i])
		}
		live = in.Build(0)
		err = w.Close()
	} else {
		rec.do("store.write", op, span, func() {
			sink := w.Sink()
			for i := range f.recs {
				sink(f.recs[i])
			}
			err = w.Close()
		})
		rec.do("ingest.route_build", op, span, func() {
			for i := range f.recs {
				in.OfferRecord(f.recs[i])
			}
			live = in.Build(0)
		})
	}
	if err != nil {
		return nil, nil, fmt.Errorf("archiving the feed: %w", err)
	}
	a.segments = w.Segments()
	rec.do("store.compact", op, span, func() {
		a.compact, err = store.Compact(dst, []string{tap}, store.CompactOptions{SegmentRecords: sz.segRecords, TempDir: dir})
	})
	if err != nil {
		return nil, nil, err
	}
	var rd *store.Reader
	var report *store.VerifyReport
	rec.do("store.verify", op, span, func() {
		if rd, err = store.Open(dst); err == nil {
			report = rd.Verify()
		}
	})
	if err != nil {
		return nil, nil, err
	}
	var replayed *catalog.Catalog
	rec.do("store.replay", op, span, func() { replayed, a.replay, err = rd.Replay(store.Query{}, workers) })
	if err != nil {
		return nil, nil, err
	}
	rec.end(span)
	a.took = time.Since(t0)
	if m != nil {
		m.stop()
	}

	var problems []string
	if !report.OK() {
		problems = append(problems, "compacted store fails Verify: "+report.String())
	}
	if n := int64(len(f.recs)); report.Records != n || a.replay.RecordsKept != n {
		problems = append(problems, fmt.Sprintf("feed has %d records, store verifies %d, replay kept %d", n, report.Records, a.replay.RecordsKept))
	}
	liveSum, err := digestOf(live.WriteCSV)
	if err != nil {
		return nil, nil, err
	}
	replaySum, err := digestOf(replayed.WriteCSV)
	if err != nil {
		return nil, nil, err
	}
	if liveSum != replaySum {
		problems = append(problems, "catalog replayed from the compacted store differs from the live-ingested one")
	}
	if a.storedBytes, err = dirBytes(dst); err != nil {
		return nil, nil, err
	}
	return a, problems, nil
}

// workRoot makes the directory a run keeps its stores in. It sits
// under the system temp dir, which run.sh points inside the checkout.
func workRoot() (string, error) { return os.MkdirTemp("", "roambench-") }

// runFeedArchive generates the feed (the set-up, with one untimed
// pass that warms the page cache and the heap), then times passes.
func runFeedArchive(cfg config) (*outcome, error) {
	o := &outcome{m: newMeter(), notes: map[string]float64{}}
	defer o.m.close()
	root, err := workRoot()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)

	t0 := time.Now()
	f := genFeed(cfg.seed, cfg.sz)
	if len(f.recs) == 0 {
		return nil, fmt.Errorf("the feed generator produced no records")
	}
	warm, problems, err := archivePass(f, cfg.sz, root, nil, nil, 0)
	if err != nil {
		return nil, err
	}
	for _, p := range problems {
		o.problem("warm-up pass: %s", p)
	}
	os.RemoveAll(filepath.Dir(warm.dir))
	o.setup = time.Since(t0)

	var last *archived
	for start := time.Now(); time.Since(start).Seconds() < cfg.seconds; {
		runtime.GC()
		o.attempted++
		a, problems, err := archivePass(f, cfg.sz, root, o.m, nil, o.attempted)
		if err != nil {
			return nil, err
		}
		os.RemoveAll(filepath.Dir(a.dir))
		if len(problems) > 0 {
			o.fail("pass %d: %v", o.attempted, problems)
			continue
		}
		o.ops = append(o.ops, a.took)
		last = a
	}
	if last != nil {
		n := float64(len(f.recs))
		o.notes["feed_records"] = n
		o.notes["records_per_s"] = n * float64(len(o.ops)) / o.m.wall.Seconds()
		o.notes["stored_bytes_per_record"] = float64(last.storedBytes) / n
		o.notes["compact_passes"] = float64(last.compact.Passes)
		o.notes["segments_sealed"] = float64(last.segments)
	}
	return o, nil
}
