package store

// Compaction: merge N stores into one time-ordered store.
//
// Site archives are written in tap order — whatever order the live
// pipeline produced records — so their segments span wide day ranges
// and day pruning rarely skips anything. Compact rewrites one or more
// stores into a single mediation-shape store sorted by (event time,
// device hash), re-rolled into fresh segments with tight footers, so
// that day pruning bites everywhere and each device's records cluster
// into few segments (which is what makes the per-segment Bloom
// filters effective).
//
// # Determinism
//
// The output is a pure function of the input record streams and the
// options — independent of fan-in, pass structure and machine. The
// global output order is the total order
//
//	(event time, device hash, input index, input ordinal)
//
// where "input index" is the store's position in the inputs argument
// and "input ordinal" the record's position within its input. It is
// produced by external merge sort: every selected sealed segment
// becomes one run, loaded and stably sorted by (time, device) —
// stability preserves input ordinals within a segment, and a
// segment's records precede the next segment's, so a run is exactly
// sorted by the total order. Runs are then merged with bounded
// fan-in, ties between runs broken by run position. Because runs are
// kept contiguous in (input index, segment index) order at every
// level, a merge node's branch position orders its runs exactly as
// the total order's (input index, input ordinal) tail does, so every
// pass — and therefore any pass structure — emits the same sequence.
//
// # Replay equivalence
//
// Replaying the compacted store rebuilds the same catalog as
// replaying the inputs and folding the builders in input order,
// because per-(device, day) aggregation is associative and
// commutative across rows and order-sensitive only within one
// device's record sequence — which compaction preserves: a device's
// records stay in time order, ties in their original input order.
// The compacted store's Host is the inputs' common host, or the zero
// PLMN when they differ (a merged multi-site store has no single
// observer); replay equivalence then holds against builders created
// with that same host.

import (
	"bufio"
	"cmp"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"slices"

	"whereroam/internal/cdrs"
)

// DefaultCompactFanIn is the merge fan-in used when CompactOptions
// leaves MaxFanIn unset: how many runs merge at once, and so how many
// segment-sized run buffers compaction holds in memory at a time.
const DefaultCompactFanIn = 64

// CompactOptions tunes a compaction. The zero value is a full
// compaction with default segment size and fan-in.
type CompactOptions struct {
	// SegmentRecords is the output store's roll threshold
	// (non-positive means DefaultSegmentRecords).
	SegmentRecords int
	// Query narrows the compaction: input segments prune against it
	// unread and surviving records filter through it, so a day-ranged
	// compaction extracts a window. The zero Query keeps everything.
	Query Query
	// MaxFanIn bounds how many runs merge at once (non-positive
	// means DefaultCompactFanIn; the floor is 2). The output is
	// byte-identical at any fan-in.
	MaxFanIn int
	// TempDir hosts the intermediate run files of multi-pass merges
	// (empty means the system temp dir). Nothing is left behind.
	TempDir string
	// Metrics attaches observability: pass/run spans on its tracer,
	// seal volume and latency on the output writer's counters. Nil
	// (the zero value) keeps compaction unobserved; the output is
	// byte-identical either way.
	Metrics *Metrics
}

// fanIn resolves the effective merge fan-in.
func (o *CompactOptions) fanIn() int {
	f := o.MaxFanIn
	if f <= 0 {
		f = DefaultCompactFanIn
	}
	if f < 2 {
		f = 2
	}
	return f
}

// CompactInput describes one input store's contribution to a
// compaction plan.
type CompactInput struct {
	// Dir is the input store directory.
	Dir string
	// Segments is the input's sealed-segment count.
	Segments int
	// Selected counts the segments the plan's query admits — each
	// becomes one merge run.
	Selected int
	// Records sums the records of the selected segments (an upper
	// bound on the input's contribution; record-level filtering may
	// drop more).
	Records int64
}

// CompactPlan is the dry-run view of a compaction: what would merge,
// from where, in how many passes.
type CompactPlan struct {
	// Kind is the record plane of every input, always KindCDR.
	Kind string
	// Meta is the output store's stream metadata: the inputs' shared
	// window, and their common host or the zero PLMN when they
	// differ.
	Meta Meta
	// SegmentRecords is the output roll threshold.
	SegmentRecords int
	// MaxFanIn is the effective merge fan-in.
	MaxFanIn int
	// Inputs describes each input store, in merge order.
	Inputs []CompactInput
	// Runs is the total number of initial merge runs (selected
	// segments across all inputs).
	Runs int
	// Passes is the number of merge passes, including the final pass
	// into the output store.
	Passes int
	// Records is the planned record volume (sum of Inputs' Records).
	Records int64
}

// CompactStats reports what a compaction actually did.
type CompactStats struct {
	// SegmentsIn counts the input segments merged.
	SegmentsIn int
	// SegmentsPruned counts the input segments the query skipped
	// unread.
	SegmentsPruned int
	// RecordsIn counts the records decoded from the merged segments.
	RecordsIn int64
	// RecordsOut counts the records written to the output store.
	RecordsOut int64
	// SegmentsOut counts the output store's sealed segments.
	SegmentsOut int
	// Passes counts the merge passes run, including the final pass.
	Passes int
}

// PlanCompact validates the inputs and returns the merge plan Compact
// would execute, without reading any segment body.
func PlanCompact(inputs []string, opts CompactOptions) (*CompactPlan, error) {
	readers, err := openInputs(inputs)
	if err != nil {
		return nil, err
	}
	return planCompact(readers, &opts)
}

// Compact merges the input stores into a new time-ordered store at
// dst (created; must not already hold a store). Inputs must share an
// observation window; the output's host is their common host, or the
// zero PLMN when they differ. On failure dst is left without a store:
// whatever the merge had already written there is removed. See the
// package comment and docs/ARCHITECTURE.md for the determinism and
// replay-equivalence contracts.
func Compact(dst string, inputs []string, opts CompactOptions) (*CompactStats, error) {
	readers, err := openInputs(inputs)
	if err != nil {
		return nil, err
	}
	plan, err := planCompact(readers, &opts)
	if err != nil {
		return nil, err
	}
	return compactStores(dst, readers, plan, &opts)
}

// openInputs opens every input store, in merge order.
func openInputs(inputs []string) ([]*Reader, error) {
	if len(inputs) == 0 {
		return nil, fmt.Errorf("store: compact needs at least one input store")
	}
	readers := make([]*Reader, len(inputs))
	for i, dir := range inputs {
		r, err := Open(dir)
		if err != nil {
			return nil, fmt.Errorf("store: compact input %s: %w", dir, err)
		}
		readers[i] = r
	}
	return readers, nil
}

// planCompact validates that the inputs share a window, resolves the
// output metadata and counts runs and passes.
func planCompact(readers []*Reader, opts *CompactOptions) (*CompactPlan, error) {
	first := readers[0].Manifest()
	meta := first.Meta()
	sameHost := true
	plan := &CompactPlan{
		Kind:           KindCDR,
		SegmentRecords: opts.SegmentRecords,
		MaxFanIn:       opts.fanIn(),
	}
	if plan.SegmentRecords < 1 {
		plan.SegmentRecords = DefaultSegmentRecords
	}
	for _, r := range readers {
		man := r.Manifest()
		m := man.Meta()
		if !m.Start.Equal(meta.Start) || m.Days != meta.Days {
			return nil, fmt.Errorf("store: compact inputs disagree on the observation window (%s)", r.Dir())
		}
		if m.Host != meta.Host {
			sameHost = false
		}
		in := CompactInput{Dir: r.Dir(), Segments: len(man.Segments)}
		for i := range man.Segments {
			si := &man.Segments[i]
			if opts.Query.judgeSegment(si) == segKeep {
				in.Selected++
				in.Records += int64(si.Records)
			}
		}
		plan.Inputs = append(plan.Inputs, in)
		plan.Runs += in.Selected
		plan.Records += in.Records
	}
	plan.Meta = Meta{Start: meta.Start, Days: meta.Days}
	if sameHost {
		plan.Meta.Host = meta.Host
	}
	plan.Passes = 1
	for n := plan.Runs; n > plan.MaxFanIn; {
		n = (n + plan.MaxFanIn - 1) / plan.MaxFanIn
		plan.Passes++
	}
	return plan, nil
}

// openRun is one live merge run: a cursor over a sorted record
// sequence plus the cached comparison key of the current record.
type openRun struct {
	cur   cdrs.Record
	timeN int64
	dev   uint64
	ok    bool
	next  func() (cdrs.Record, bool, error)
	done  func() error
}

// advance steps the cursor and refreshes the key cache.
func (r *openRun) advance() error {
	rec, ok, err := r.next()
	if err != nil {
		return err
	}
	r.ok = ok
	if ok {
		r.cur = rec
		r.timeN = rec.Time.UnixNano()
		r.dev = uint64(rec.Device)
	}
	return nil
}

// runSrc is a not-yet-open run; merging opens runs lazily, one merge
// group at a time, so memory is bounded by fan-in × run size.
type runSrc struct {
	open func() (*openRun, error)
}

// segmentRun builds the runSrc for one sealed segment: load it (the
// query's record filter applied), stably sort by (time, device) —
// stability preserves input ordinals on ties — and cursor over the
// slice.
func segmentRun(r *Reader, si *SegmentInfo, q Query, recordsIn *int64) runSrc {
	dir, start := r.dir, r.man.Start
	return runSrc{open: func() (*openRun, error) {
		type keyed struct {
			timeN int64
			dev   uint64
			rec   cdrs.Record
		}
		recs := make([]keyed, 0, si.Records)
		err := scanSegment(dir, si, cdrs.NewDecoder(nil), func(rec *cdrs.Record) {
			*recordsIn++
			if !q.keepRecord(dayOf(rec.Time, start), rec) {
				return
			}
			recs = append(recs, keyed{timeN: rec.Time.UnixNano(), dev: uint64(rec.Device), rec: *rec})
		})
		if err != nil {
			return nil, err
		}
		slices.SortStableFunc(recs, func(a, b keyed) int {
			if c := cmp.Compare(a.timeN, b.timeN); c != 0 {
				return c
			}
			return cmp.Compare(a.dev, b.dev)
		})
		i := 0
		run := &openRun{done: func() error { return nil }}
		run.next = func() (cdrs.Record, bool, error) {
			if i >= len(recs) {
				return cdrs.Record{}, false, nil
			}
			rec := recs[i].rec
			i++
			return rec, true, nil
		}
		return run, run.advance()
	}}
}

// fileRun builds the runSrc for an intermediate run file: a plain
// codec stream already in merged order.
func fileRun(path string) runSrc {
	return runSrc{open: func() (*openRun, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("store: opening run file: %w", err)
		}
		dec := cdrs.NewReader(bufio.NewReaderSize(f, 1<<16))
		run := &openRun{done: f.Close}
		run.next = func() (cdrs.Record, bool, error) {
			var rec cdrs.Record
			err := dec.Read(&rec)
			if err == io.EOF {
				return rec, false, nil
			}
			if err != nil {
				return rec, false, fmt.Errorf("store: decoding run file %s: %w", path, err)
			}
			return rec, true, nil
		}
		return run, run.advance()
	}}
}

// mergeGroup opens a contiguous group of runs and merges them into
// emit in (time, device, run position) order. Run position breaks
// ties: with runs grouped contiguously in (input index, segment
// index) order, that reproduces the global total order's (input
// index, input ordinal) tail — the determinism argument in the
// package comment.
func mergeGroup(srcs []runSrc, emit func(*cdrs.Record) error) (err error) {
	runs := make([]*openRun, len(srcs))
	defer func() {
		for _, r := range runs {
			if r != nil {
				if cerr := r.done(); cerr != nil && err == nil {
					err = cerr
				}
			}
		}
	}()
	for i, src := range srcs {
		r, oerr := src.open()
		if oerr != nil {
			return oerr
		}
		runs[i] = r
	}
	less := func(a, b int) bool {
		ra, rb := runs[a], runs[b]
		if ra.timeN != rb.timeN {
			return ra.timeN < rb.timeN
		}
		if ra.dev != rb.dev {
			return ra.dev < rb.dev
		}
		return a < b
	}
	// A small binary min-heap of run positions; fan-in is bounded,
	// so this stays cache-resident.
	h := make([]int, 0, len(runs))
	siftDown := func(i int) {
		for {
			l, r := 2*i+1, 2*i+2
			small := i
			if l < len(h) && less(h[l], h[small]) {
				small = l
			}
			if r < len(h) && less(h[r], h[small]) {
				small = r
			}
			if small == i {
				return
			}
			h[i], h[small] = h[small], h[i]
			i = small
		}
	}
	for i := range runs {
		if runs[i].ok {
			h = append(h, i)
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(i)
	}
	for len(h) > 0 {
		r := runs[h[0]]
		if err := emit(&r.cur); err != nil {
			return err
		}
		if err := r.advance(); err != nil {
			return err
		}
		if !r.ok {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftDown(0)
	}
	return nil
}

// compactStores is the compaction body: build the initial segment
// runs, reduce them with bounded-fan-in merge passes through temp run
// files, and run the final pass into the output store's writer.
func compactStores(dst string, readers []*Reader, plan *CompactPlan, opts *CompactOptions) (*CompactStats, error) {
	stats := &CompactStats{}
	total := opts.Metrics.span("compact").
		Label("inputs", itoa(len(readers))).Label("fan_in", itoa(plan.MaxFanIn))
	var srcs []runSrc
	for _, r := range readers {
		for i := range r.man.Segments {
			si := &r.man.Segments[i]
			if opts.Query.judgeSegment(si) != segKeep {
				stats.SegmentsPruned++
				continue
			}
			stats.SegmentsIn++
			srcs = append(srcs, segmentRun(r, si, opts.Query, &stats.RecordsIn))
		}
	}

	fan := plan.MaxFanIn
	var tmpDir string
	defer func() {
		if tmpDir != "" {
			os.RemoveAll(tmpDir)
		}
	}()
	level := 0
	for len(srcs) > fan {
		if tmpDir == "" {
			var err error
			tmpDir, err = os.MkdirTemp(opts.TempDir, "wrcompact-")
			if err != nil {
				return nil, fmt.Errorf("store: creating compaction temp dir: %w", err)
			}
		}
		pass := opts.Metrics.span("compact_pass").
			Label("level", itoa(level)).Label("runs", itoa(len(srcs)))
		next := make([]runSrc, 0, (len(srcs)+fan-1)/fan)
		for g := 0; g < len(srcs); g += fan {
			hi := g + fan
			if hi > len(srcs) {
				hi = len(srcs)
			}
			path := fmt.Sprintf("%s/run-%d-%06d", tmpDir, level, g/fan)
			run := opts.Metrics.span("compact_run").
				Label("level", itoa(level)).Label("group", itoa(g/fan))
			if err := writeRunFile(path, srcs[g:hi]); err != nil {
				return nil, err
			}
			run.Finish()
			next = append(next, fileRun(path))
		}
		srcs = next
		level++
		stats.Passes++
		pass.Finish()
	}

	_, statErr := os.Stat(dst)
	w, err := NewWriter(dst, plan.Meta, plan.SegmentRecords)
	if err != nil {
		return nil, err
	}
	w.Observe(opts.Metrics)
	final := opts.Metrics.span("compact_final").Label("runs", itoa(len(srcs)))
	err = mergeGroup(srcs, func(rec *cdrs.Record) error {
		stats.RecordsOut++
		return w.Append(*rec)
	})
	if err == nil {
		err = w.Close()
	}
	if err != nil {
		// The destination is absent or complete: a store holding the
		// merged prefix would open and verify clean, so take it away —
		// and the directory too, if this call made it.
		if derr := w.discard(); derr != nil {
			err = fmt.Errorf("%w (and removing the partial store at %s: %v)", err, dst, derr)
		}
		if errors.Is(statErr, fs.ErrNotExist) {
			os.Remove(dst)
		}
		return nil, err
	}
	final.Finish()
	stats.SegmentsOut = w.Segments()
	stats.Passes++
	total.Label("records_out", fmt.Sprint(stats.RecordsOut)).Finish()
	return stats, nil
}

// writeRunFile merges a run group into one intermediate codec-stream
// file at path.
func writeRunFile(path string, srcs []runSrc) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("store: creating run file: %w", err)
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	enc := cdrs.NewWriter(bw)
	if err := mergeGroup(srcs, enc.Write); err != nil {
		f.Close()
		return err
	}
	if err := enc.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("store: flushing run file %s: %w", path, err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("store: flushing run file %s: %w", path, err)
	}
	return f.Close()
}
