package store

import (
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sync"

	"whereroam/internal/cdrs"
	"whereroam/internal/mccmnc"
)

// checkpointMinTail is the smallest log tail that triggers a manifest
// checkpoint. Combined with the tail ≥ covered-segments rule this
// makes checkpointing geometric (roughly every doubling of the
// store), so the amortized manifest cost per seal stays O(1) while
// Open never parses more than about half the store from the log.
const checkpointMinTail = 16

// Writer archives a CDR/xDR record stream into a store directory:
// records append to the current segment through the internal/cdrs
// binary wire codec, segments seal with a Bloom filter and footer every
// SegmentRecords records, and each seal appends one entry to the
// manifest log — O(1) in segment count, with a geometric checkpoint
// snapshotting the index. All methods are safe for concurrent
// producers (appends serialize on an internal mutex, so each
// producer's record order is preserved — the per-device order
// contract replay rests on). Errors are sticky: the first I/O failure
// fails every later append and is returned by Close.
type Writer struct {
	dir        string
	meta       Meta
	clock      dayClock
	segRecords int

	mu       sync.Mutex
	err      error
	closed   bool
	f        *os.File
	body     *crcCountWriter
	enc      *cdrs.Writer
	cur      SegmentInfo
	visited  []mccmnc.PLMN
	devs     map[uint64]struct{}
	logF     *os.File
	ckptSegs int
	man      Manifest
	met      *Metrics
}

// NewWriter creates a store at dir (created if absent; must not
// already hold a store) rolling segments every segmentRecords records
// (non-positive means [DefaultSegmentRecords]).
func NewWriter(dir string, meta Meta, segmentRecords int) (*Writer, error) {
	if segmentRecords < 1 {
		segmentRecords = DefaultSegmentRecords
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	if storeExists(dir) {
		return nil, fmt.Errorf("store: %s already holds a store manifest", dir)
	}
	w := &Writer{
		dir:        dir,
		meta:       meta,
		clock:      newDayClock(meta.Start),
		segRecords: segmentRecords,
		devs:       map[uint64]struct{}{},
		man: Manifest{
			Version:        manifestVersionV2,
			Kind:           KindCDR,
			Start:          meta.Start,
			Days:           meta.Days,
			SegmentRecords: segmentRecords,
		},
	}
	if meta.Host != (mccmnc.PLMN{}) {
		w.man.Host = meta.Host.Concat()
	}
	logF, err := os.OpenFile(filepath.Join(dir, ManifestLogName), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: creating manifest log: %w", err)
	}
	w.logF = logF
	// An empty store is still a store: write the initial checkpoint
	// up front so a feed that produces no records leaves a valid,
	// replayable (empty) archive rather than a bare directory. The
	// checkpoint's dir sync also makes the log file's entry durable.
	if err := w.checkpoint(); err != nil {
		logF.Close()
		return nil, err
	}
	return w, nil
}

// Append archives one record, sealing the current segment when it
// reaches the roll threshold. Safe for concurrent producers.
func (w *Writer) Append(rec cdrs.Record) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.ready(); err != nil {
		return err
	}
	if err := w.enc.Write(&rec); err != nil {
		w.err = err
		return err
	}
	return w.noteRecord(dayOf(rec.Time, w.meta.Start), uint64(rec.Device), rec.Visited)
}

// appendFrame archives one record given as its wire frame — one a
// cdrs.Decoder verified and cdrs.Decoder.Canonical accepted, or one
// cdrs.AppendFrame built — copied verbatim; the footer accumulators
// read the frame's time, device and visited network in place. It is
// Append for a record already encoded.
func (w *Writer) appendFrame(frame []byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.ready(); err != nil {
		return err
	}
	if err := w.enc.WriteFrame(frame); err != nil {
		w.err = err
		return err
	}
	return w.noteRecord(w.clock.day(cdrs.FrameTime(frame)), cdrs.FrameDevice(frame), cdrs.FrameVisited(frame))
}

// ready refuses an append to a failed or closed writer and opens a
// segment if none is open. Callers hold mu.
func (w *Writer) ready() error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		// Not sticky: a straggler producer offering after a clean Close
		// is the caller's bug to see, but it must not retroactively
		// mark a fully sealed, valid archive as failed through Err()
		// or a repeated Close().
		return ErrClosed
	}
	if w.f == nil {
		if err := w.openSegment(); err != nil {
			w.err = err
			return err
		}
	}
	return nil
}

// noteRecord folds one just-encoded record into the footer
// accumulators and seals the segment at the roll threshold. Callers
// hold mu.
func (w *Writer) noteRecord(day int, dev uint64, visited mccmnc.PLMN) error {
	if day < w.cur.MinDay {
		w.cur.MinDay = day
	}
	if day > w.cur.MaxDay {
		w.cur.MaxDay = day
	}
	if dev < w.cur.MinDevice {
		w.cur.MinDevice = dev
	}
	if dev > w.cur.MaxDevice {
		w.cur.MaxDevice = dev
	}
	w.devs[dev] = struct{}{}
	w.noteVisited(visited)
	w.cur.Records++
	if w.cur.Records >= w.segRecords {
		if err := w.seal(); err != nil {
			w.err = err
			return err
		}
	}
	return nil
}

// Sink adapts the writer to a record sink (say, one leg of a probe
// fanout): errors stick inside the writer and surface from
// [Writer.Err] and [Writer.Close].
func (w *Writer) Sink() func(cdrs.Record) {
	return func(rec cdrs.Record) { _ = w.Append(rec) }
}

// Count returns how many records have been appended (sealed or not).
func (w *Writer) Count() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.man.TotalRecords + int64(w.cur.Records)
}

// Segments returns how many segments have been sealed.
func (w *Writer) Segments() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.man.Segments)
}

// Err returns the writer's sticky error, if any.
//
//roamvet:deadcode-ok failure read-back: the crash-safety tests observe a mid-stream write error through it before Close
func (w *Writer) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Close seals the in-progress segment (if it holds records) and
// releases the writer. The manifest needs no final rewrite — every
// sealed segment is already durable in the log — so a closed and a
// crashed-after-seal store open identically. It returns the writer's
// first error. Idempotent.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return w.err
	}
	w.closed = true
	if w.err != nil {
		if w.f != nil {
			w.f.Close()
		}
		if w.logF != nil {
			w.logF.Close()
		}
		return w.err
	}
	if w.f != nil {
		if err := w.seal(); err != nil {
			w.err = err
		}
	}
	if w.logF != nil {
		if err := w.logF.Close(); err != nil && w.err == nil {
			w.err = fmt.Errorf("store: closing manifest log: %w", err)
		}
		w.logF = nil
	}
	return w.err
}

// discard abandons the store being written: it closes the writer
// without sealing the open segment and removes every file the writer
// created, checkpoint first — Open needs it, so the directory stops
// being a store before anything else goes. It returns the first
// removal that failed.
func (w *Writer) discard() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.closed = true
	if w.f != nil {
		w.f.Close()
		w.f = nil
	}
	if w.logF != nil {
		w.logF.Close()
		w.logF = nil
	}
	names := []string{ManifestCheckpointName, ManifestLogName}
	for i := range w.man.Segments {
		names = append(names, w.man.Segments[i].Name)
	}
	// The segment that was open, or that failed mid-seal.
	if w.cur.Name != "" {
		names = append(names, w.cur.Name)
	}
	var first error
	for _, name := range names {
		if err := os.Remove(filepath.Join(w.dir, name)); err != nil && !errors.Is(err, fs.ErrNotExist) && first == nil {
			first = err
		}
	}
	return first
}

// openSegment starts a fresh segment file and resets the footer
// accumulators.
func (w *Writer) openSegment() error {
	name := fmt.Sprintf("seg-%06d.wrseg", len(w.man.Segments))
	f, err := os.Create(filepath.Join(w.dir, name))
	if err != nil {
		return fmt.Errorf("store: creating segment %s: %w", name, err)
	}
	w.f = f
	w.body = &crcCountWriter{w: f}
	w.enc = cdrs.NewWriter(w.body)
	w.cur = SegmentInfo{
		Name:      name,
		MinDay:    math.MaxInt32,
		MaxDay:    math.MinInt32,
		MinDevice: math.MaxUint64,
	}
	w.visited = w.visited[:0]
	// One device set serves every segment: cleared, not remade, so it
	// keeps its buckets. The Bloom filter ORs it in any order and is
	// sized by its count, so reuse changes no byte.
	clear(w.devs)
	return nil
}

// noteVisited indexes a record's visited network in the footer
// accumulator, flipping the overflow flag once the footer is full.
func (w *Writer) noteVisited(p mccmnc.PLMN) {
	for _, v := range w.visited {
		if v == p {
			return
		}
	}
	if len(w.visited) >= maxFooterVisited {
		w.cur.VisitedOverflow = true
		return
	}
	w.visited = append(w.visited, p)
}

// seal flushes the codec stream, appends the segment's Bloom filter
// and footer, closes the segment file, appends the manifest-log entry
// and checkpoints when the log tail has grown enough. Every exit path
// leaves w.f nil so a later Close cannot double-close the descriptor.
func (w *Writer) seal() error {
	sw := w.met.sealTimer()
	if err := w.enc.Flush(); err != nil {
		w.f.Close()
		w.f = nil
		return fmt.Errorf("store: flushing %s: %w", w.cur.Name, err)
	}
	w.cur.BodyBytes = w.body.n
	w.cur.BodyCRC = w.body.crc
	bloom := make([]byte, bloomSize(len(w.devs)))
	// Bloom construction ORs one bit set per device into the filter;
	// the result is independent of insertion order.
	//roamvet:maporder-ok bit-OR accumulation is commutative
	for dev := range w.devs {
		bloomAdd(bloom, bloomHashCount, dev)
	}
	w.cur.Bloom = bloom
	w.cur.BloomHashes = bloomHashCount
	w.cur.Bytes = w.body.n + int64(len(bloom)) + footerV2Size
	footer := encodeFooter(kindByteCDR, &w.cur, w.visited)
	if _, err := w.f.Write(bloom); err != nil {
		w.f.Close()
		w.f = nil
		return fmt.Errorf("store: writing %s bloom filter: %w", w.cur.Name, err)
	}
	if _, err := w.f.Write(footer[:]); err != nil {
		w.f.Close()
		w.f = nil
		return fmt.Errorf("store: writing %s footer: %w", w.cur.Name, err)
	}
	if err := w.f.Sync(); err != nil {
		w.f.Close()
		w.f = nil
		return fmt.Errorf("store: syncing %s: %w", w.cur.Name, err)
	}
	if err := w.f.Close(); err != nil {
		w.f = nil
		return fmt.Errorf("store: closing %s: %w", w.cur.Name, err)
	}
	// The segment's directory entry must be durable before the log
	// entry that references it, or a crash could persist the entry
	// but not the file.
	if err := syncDir(w.dir); err != nil {
		w.f = nil
		return fmt.Errorf("store: syncing %s: %w", w.dir, err)
	}
	w.cur.Visited = make([]string, len(w.visited))
	for i, p := range w.visited {
		w.cur.Visited[i] = p.Concat()
	}
	if err := appendLogEntry(w.logF, &w.cur); err != nil {
		w.f = nil
		return err
	}
	if err := w.logF.Sync(); err != nil {
		w.f = nil
		return fmt.Errorf("store: syncing manifest log: %w", err)
	}
	w.man.Segments = append(w.man.Segments, w.cur)
	w.man.TotalRecords += int64(w.cur.Records)
	sw.Stop()
	w.met.noteSeal(w.cur.Bytes, w.cur.Records)
	w.f, w.body, w.enc = nil, nil, nil
	w.cur = SegmentInfo{}
	tail := len(w.man.Segments) - w.ckptSegs
	if tail >= checkpointMinTail && tail >= w.ckptSegs {
		return w.checkpoint()
	}
	return nil
}

// checkpoint snapshots the manifest into MANIFEST.ckpt, recording how
// many log entries (= sealed segments, one entry each) it covers.
func (w *Writer) checkpoint() error {
	defer w.met.ckptTimer().Stop()
	man := w.man
	man.LogEntries = len(w.man.Segments)
	if err := writeCheckpoint(w.dir, &man); err != nil {
		return fmt.Errorf("store: writing checkpoint: %w", err)
	}
	w.ckptSegs = len(w.man.Segments)
	return nil
}
