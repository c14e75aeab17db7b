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
// becomes one run, sorted by (time, device, offset) — a frame's
// offset in its run rises with its input ordinal, so a run is exactly
// sorted by the total order, the order a stable sort by (time,
// device) gives. Runs are then merged with bounded fan-in, ties
// between runs broken by run position. Because runs are kept
// contiguous in (input index, segment index) order at every level, a
// merge node's branch position orders its runs exactly as the total
// order's (input index, input ordinal) tail does, so every pass — and
// therefore any pass structure — emits the same sequence.
//
// # Frames, not records
//
// A run is encoded frames plus 24-byte keys, never decoded records.
// Opening a segment run checks what a replay checks — file length,
// body CRC, every record's APN parsed, the frame filtered through the
// query and only the kept records decoded, the record count against
// the footer — and copies each kept record's wire frame into a
// run-owned buffer; the sort moves only (time, device, offset, length)
// keys. Run files hold the merged frames back to back, read back with
// a length-prefix check and no field decode, and the final pass hands
// frames to the output writer, which fills each footer by peeking
// time, device and visited network. The output is the same as
// decoding, stable-sorting and re-encoding every record because a
// frame is copied verbatim only if it is canonical
// (cdrs.Decoder.Canonical): re-encoding its decoded record would give
// the same bytes. Every fixed field round-trips, so that is a voice
// frame with no APN bytes, or a data frame whose APN bytes are its
// parsed APN's String(). A frame that is not — an APN appended as
// {NetworkID: "Smart.METER"} decodes to "smart.meter" — is re-encoded
// from its record, as Writer.Write would.
//
// A merge group opens its runs in parallel, one decoder per worker
// over a contiguous range of runs. Runs are independent and the first
// error in run order is the one returned, so neither the output nor
// the error depends on the worker count.
//
// The fan-in stays bounded by run count, not by buffered bytes. A
// 311 k-record store of 77 segments takes two passes at the default
// 64; one pass at fan-in 128 was measured no faster (median of 12
// compactions on 2 cores: 324 ms at 128 against 318 ms at 64), and
// it holds twice the runs in memory.
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
	"sync/atomic"

	"whereroam/internal/cdrs"
	"whereroam/internal/pipeline"
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

// openRun is one live merge run: a cursor over a sorted frame
// sequence plus the comparison key of the current frame.
type openRun struct {
	frame []byte
	timeN int64
	dev   uint64
	ok    bool
	next  func() ([]byte, bool, error)
	done  func() error
}

// advance steps the cursor and peeks the new frame's key.
func (r *openRun) advance() error {
	frame, ok, err := r.next()
	if err != nil {
		return err
	}
	r.ok = ok
	if ok {
		r.frame, r.timeN, r.dev = frame, cdrs.FrameTime(frame), cdrs.FrameDevice(frame)
	}
	return nil
}

// runSrc is a not-yet-open run; merging opens runs lazily, one merge
// group at a time, so memory is bounded by fan-in × run size. open
// gets the decoder of the worker opening it. A run it returns is the
// caller's to close with done, also when it comes with an error.
type runSrc struct {
	open func(dec *cdrs.Decoder) (*openRun, error)
}

// frameKey is one run record's merge key and where its frame sits in
// the run's buffer: 24 bytes to sort, where a decoded record is 88.
type frameKey struct {
	timeN  int64
	dev    uint64
	off, n uint32
}

// minFrame is the smallest wire frame: the length prefix and the fixed
// body of a record without an APN.
const minFrame = 42

// segmentRun builds the runSrc for one sealed segment: scan it (length,
// CRC and every record validated, the query's frame filter applied,
// the kept records decoded),
// copy each kept record's frame into a run-owned buffer — verbatim if
// it is canonical, re-encoded if not — and sort the frame keys by
// (time, device, offset). Offsets rise in input order, so that is the
// stable order: input ordinals break ties.
func segmentRun(r *Reader, si *SegmentInfo, q Query, recordsIn *atomic.Int64) runSrc {
	dir, keep := r.dir, q.keep(newDayClock(r.man.Start))
	return runSrc{open: func(dec *cdrs.Decoder) (*openRun, error) {
		var (
			buf    []byte
			keys   []frameKey
			encErr error
		)
		read, err := scanSegment(dir, si, dec, keep, func(i int, frame []byte, rec *cdrs.Record) {
			if keys == nil {
				// The scan checked BodyBytes against the file before the
				// first visit; Records is checked only after the last,
				// so the body bounds the key count too.
				buf = make([]byte, 0, si.BodyBytes)
				keys = make([]frameKey, 0, min(max(si.Records, 0), int(si.BodyBytes/minFrame)))
			}
			if encErr != nil {
				return
			}
			off := len(buf)
			if dec.Canonical(frame, rec) {
				buf = append(buf, frame...)
			} else if buf, encErr = cdrs.AppendFrame(buf, rec); encErr != nil {
				encErr = fmt.Errorf("store: re-encoding %s record %d: %w", si.Name, i, encErr)
				return
			}
			keys = append(keys, frameKey{rec.Time.UnixNano(), uint64(rec.Device), uint32(off), uint32(len(buf) - off)})
		})
		recordsIn.Add(int64(read))
		if err == nil {
			err = encErr
		}
		if err != nil {
			return nil, err
		}
		//roamvet:stablesort-ok total order (time, device, offset): offsets are distinct and rise in input order
		slices.SortFunc(keys, func(a, b frameKey) int {
			if c := cmp.Compare(a.timeN, b.timeN); c != 0 {
				return c
			}
			if c := cmp.Compare(a.dev, b.dev); c != 0 {
				return c
			}
			return cmp.Compare(a.off, b.off)
		})
		run := &openRun{done: func() error { return nil }}
		run.next = func() ([]byte, bool, error) {
			if len(keys) == 0 {
				return nil, false, nil
			}
			k := keys[0]
			keys = keys[1:]
			return buf[k.off : k.off+k.n], true, nil
		}
		return run, run.advance()
	}}
}

// fileRun builds the runSrc for an intermediate run file: raw frames,
// already in merged order.
func fileRun(path string) runSrc {
	return runSrc{open: func(*cdrs.Decoder) (*openRun, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("store: opening run file: %w", err)
		}
		br := bufio.NewReaderSize(f, 1<<16)
		var frame []byte
		run := &openRun{done: f.Close}
		run.next = func() ([]byte, bool, error) {
			var err error
			frame, err = readRunFrame(br, frame)
			if err == io.EOF {
				return nil, false, nil
			}
			if err != nil {
				return nil, false, fmt.Errorf("store: reading run file %s: %w", path, err)
			}
			return frame, true, nil
		}
		return run, run.advance()
	}}
}

// readRunFrame reads the next frame of a run file into buf: the length
// prefix, checked as every reader checks it, and the body, not decoded
// — a run file holds only frames a segment scan verified. io.EOF marks
// a clean end.
func readRunFrame(br *bufio.Reader, buf []byte) ([]byte, error) {
	buf = slices.Grow(buf[:0], 2)[:2]
	if _, err := io.ReadFull(br, buf); err != nil {
		if err == io.ErrUnexpectedEOF {
			err = cdrs.ErrTruncated
		}
		return nil, err
	}
	n, err := cdrs.FrameLen(buf)
	if err != nil {
		return nil, err
	}
	buf = slices.Grow(buf, n)[:2+n]
	if _, err := io.ReadFull(br, buf[2:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			err = cdrs.ErrTruncated
		}
		return nil, err
	}
	return buf, nil
}

// openRuns opens srcs into runs in parallel: one decoder per worker
// over a contiguous range of runs, each range stopping at its first
// failure. Runs are independent, so what opens does not depend on the
// worker count, and the error returned is the first in run order.
// Every run that came back, with or without an error, is left in runs
// for the caller to close.
func openRuns(srcs []runSrc, runs []*openRun) error {
	errs := pipeline.PerWorker(len(srcs), 0, func(sh pipeline.Shard) error {
		dec := cdrs.NewDecoder(nil)
		for k := sh.Lo; k < sh.Hi; k++ {
			var err error
			if runs[k], err = srcs[k].open(dec); err != nil {
				return err
			}
		}
		return nil
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// mergeGroup opens a contiguous group of runs and merges their frames
// into emit in (time, device, run position) order. Run position breaks
// ties: with runs grouped contiguously in (input index, segment
// index) order, that reproduces the global total order's (input
// index, input ordinal) tail — the determinism argument in the
// package comment. A frame handed to emit is valid only during the
// call.
func mergeGroup(srcs []runSrc, emit func(frame []byte) error) (err error) {
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
	if err := openRuns(srcs, runs); err != nil {
		return err
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
		if err := emit(r.frame); err != nil {
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
	var (
		srcs      []runSrc
		recordsIn atomic.Int64 // segment runs open in parallel
	)
	for _, r := range readers {
		for i := range r.man.Segments {
			si := &r.man.Segments[i]
			if opts.Query.judgeSegment(si) != segKeep {
				stats.SegmentsPruned++
				continue
			}
			stats.SegmentsIn++
			srcs = append(srcs, segmentRun(r, si, opts.Query, &recordsIn))
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
	err = mergeGroup(srcs, func(frame []byte) error {
		stats.RecordsOut++
		return w.appendFrame(frame)
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
	stats.RecordsIn = recordsIn.Load()
	stats.SegmentsOut = w.Segments()
	stats.Passes++
	total.Label("records_out", fmt.Sprint(stats.RecordsOut)).Finish()
	return stats, nil
}

// writeRunFile merges a run group into one intermediate run file at
// path: its frames back to back, with no stream header.
func writeRunFile(path string, srcs []runSrc) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("store: creating run file: %w", err)
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	if err := mergeGroup(srcs, func(frame []byte) error {
		_, err := bw.Write(frame)
		return err
	}); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("store: flushing run file %s: %w", path, err)
	}
	return f.Close()
}
