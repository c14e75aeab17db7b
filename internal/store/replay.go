package store

import (
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"whereroam/internal/catalog"
	"whereroam/internal/cdrs"
	"whereroam/internal/pipeline"
)

// ReplayStats instruments one replay: how much of the store was
// actually read versus pruned away, and how many records survived the
// query. BytesRead counts segment-body bytes only — pruned segments
// contribute nothing, which is what the pruning benchmarks and the
// acceptance tests assert on.
type ReplayStats struct {
	// SegmentsTotal is the number of sealed segments in the store.
	SegmentsTotal int
	// SegmentsRead counts segments whose bodies were scanned end to
	// end.
	SegmentsRead int
	// SegmentsPruned counts segments skipped by the footer index
	// without reading, for any reason (range indexes or Bloom
	// filter).
	SegmentsPruned int
	// SegmentsPrunedBloom counts the subset of SegmentsPruned skipped
	// by the device-hash Bloom filter alone — their range indexes
	// admitted the queried device.
	SegmentsPrunedBloom int
	// SegmentsTorn counts unsealed segment files skipped with a
	// report (a crash mid-write leaves at most one).
	SegmentsTorn int
	// BytesRead totals the body bytes scanned.
	BytesRead int64
	// RecordsRead counts the records of the scanned segments whose
	// frames validated (length and APN). The query's record filter
	// runs on the wire frame, so only the RecordsKept among them are
	// decoded.
	RecordsRead int64
	// RecordsKept counts records that survived the record-level
	// query (for a catalog replay: and the store's declared day
	// window — kept means it reached the catalog builder).
	RecordsKept int64
	// RecordsOutsideWindow counts records whose event day falls
	// outside the store's declared [0, Days) window during a catalog
	// replay; the builder would silently drop them, so they are
	// surfaced here instead of inflating RecordsKept. Always zero for
	// the sequential replay, which delivers every matching record to
	// the caller regardless of the window.
	RecordsOutsideWindow int64
}

// add folds another stats block into s.
func (s *ReplayStats) add(o ReplayStats) {
	s.SegmentsRead += o.SegmentsRead
	s.BytesRead += o.BytesRead
	s.RecordsRead += o.RecordsRead
	s.RecordsKept += o.RecordsKept
	s.RecordsOutsideWindow += o.RecordsOutsideWindow
}

// Reader reads a store back: it materializes the manifest once
// (checkpoint + log tail), reports torn (unsealed) segment files, and replays sealed segments
// with index-driven pruning — concurrently into a catalog build
// ([Reader.Replay]) or sequentially into a caller sink. [Reader.Plan]
// exposes the segment-selection decision for a [Query] without
// reading anything.
//
// A Reader is an immutable snapshot of the store at Open time: it
// replays exactly the segments its manifest lists, and sealed
// segments are never rewritten, so replaying while a Writer
// keeps appending to the same directory is safe and bit-identical to
// replaying a quiescent store — later seals are simply invisible
// until the store is re-Opened. The files a live writer does touch —
// the append-only MANIFEST.log and the atomically replaced
// MANIFEST.ckpt — are read only at Open.
type Reader struct {
	dir  string
	man  Manifest
	minf ManifestInfo
	torn []string
	met  *Metrics
}

// Open loads the store manifest at dir (checkpoint + log tail) and scans the directory for torn
// segment files (present on disk but not covered by the manifest —
// the residue of a crash mid-write). Torn files are reported, never
// read. A torn final MANIFEST.log entry is tolerated: the entry is
// discarded and its segment file shows up as torn.
//
// The directory is listed before the manifest is read: a segment
// sealed between the two steps is then present in the manifest but
// absent from the listing (harmless), never the reverse, so a healthy
// store with a live writer reports at most its single in-progress
// segment as torn. Listing after reading would race the other way and
// misreport freshly sealed segments.
func Open(dir string) (*Reader, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: listing %s: %w", dir, err)
	}
	r := &Reader{dir: dir}
	r.man, r.minf, err = loadManifest(dir)
	if err != nil {
		return nil, err
	}
	sealed := make(map[string]bool, len(r.man.Segments))
	for i := range r.man.Segments {
		name := r.man.Segments[i].Name
		// Segment names come from an on-disk manifest; confine them to
		// plain seg-*.wrseg entries inside the store directory so a
		// crafted manifest cannot read arbitrary paths.
		if name != filepath.Base(name) || !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".wrseg") {
			return nil, fmt.Errorf("store: %w: manifest segment name %q", ErrCorrupt, name)
		}
		sealed[name] = true
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, ".wrseg") && !sealed[name] {
			r.torn = append(r.torn, name)
		}
	}
	sort.Strings(r.torn)
	return r, nil
}

// Manifest returns the store's materialized manifest. Callers must
// treat it as read-only.
func (r *Reader) Manifest() *Manifest { return &r.man }

// ManifestInfo reports how the manifest was materialized at Open:
// schema version, checkpoint/log-tail split, and whether a torn log
// tail was discarded.
func (r *Reader) ManifestInfo() ManifestInfo { return r.minf }

// Torn lists the unsealed segment files found at Open time.
func (r *Reader) Torn() []string { return r.torn }

// Dir returns the store directory.
func (r *Reader) Dir() string { return r.dir }

// baseStats pre-fills the store-wide counters of a replay.
func (r *Reader) baseStats() ReplayStats {
	return ReplayStats{SegmentsTotal: len(r.man.Segments), SegmentsTorn: len(r.torn)}
}

// selectSegments applies the segment-level planner, returning the
// indices of segments to read (in store order) and counting the
// pruned remainder.
func (r *Reader) selectSegments(q Query, stats *ReplayStats) []int {
	var selected []int
	prunedRange, prunedBloom := 0, 0
	for i := range r.man.Segments {
		switch q.judgeSegment(&r.man.Segments[i]) {
		case segKeep:
			selected = append(selected, i)
		case segPruneBloom:
			prunedBloom++
		default:
			prunedRange++
		}
	}
	stats.SegmentsPruned += prunedRange + prunedBloom
	stats.SegmentsPrunedBloom += prunedBloom
	r.met.notePlan(len(selected), prunedRange, prunedBloom)
	return selected
}

// Replay rebuilds the devices-catalog from the store on
// workers goroutines (the usual convention: below one means one per
// CPU). Segments prune against the query's footer-index plan without
// being read; the surviving segments are cut into one contiguous range
// per worker, each range decodes into its own catalog builder through
// one decoder reused across the range's segments, and the range
// builders fold in range order. Where the cuts fall depends on the
// worker count, but every per-(device, day) aggregate is an integer
// add, an OR, a first non-zero value or a first-seen union — each
// composes over any contiguous split of the store-order record stream
// — so the catalog is bit-identical at any worker count to a serial
// build over the same records (and to the live build the archive was
// tapped from). Torn segments are skipped and counted; a corrupt sealed
// segment (CRC, length or record-count mismatch) aborts with
// ErrCorrupt.
func (r *Reader) Replay(q Query, workers int) (*catalog.Catalog, *ReplayStats, error) {
	meta := r.man.Meta()
	stats := r.baseStats()
	selected := r.selectSegments(q, &stats)
	clock := newDayClock(meta.Start)
	keep := q.keep(clock)

	type part struct {
		b     *catalog.Builder
		stats ReplayStats
		err   error
	}
	// One range per worker, so there are at most min(workers, selected)
	// builders and decoders.
	parts := pipeline.PerWorker(len(selected), workers, func(sh pipeline.Shard) part {
		defer r.met.shardHist().Start().Stop()
		p := part{b: catalog.NewBuilder(meta.Host, meta.Start, meta.Days, nil)}
		dec := cdrs.NewDecoder(nil)
		for k := sh.Lo; k < sh.Hi; k++ {
			si := &r.man.Segments[selected[k]]
			n, err := scanSegment(r.dir, si, dec, keep,
				func(_ int, frame []byte, rec *cdrs.Record) {
					// The builder silently drops records outside the
					// declared window; count them apart so RecordsKept
					// always equals what the catalog actually absorbed.
					// A day truncates, so an instant less than a day
					// before the start is day 0 yet outside.
					day := clock.day(cdrs.FrameTime(frame))
					if day < 0 || day >= meta.Days || rec.Time.Before(meta.Start) {
						p.stats.RecordsOutsideWindow++
						return
					}
					p.stats.RecordsKept++
					p.b.AddDayRecord(day, rec)
				})
			p.stats.RecordsRead += int64(n)
			if err != nil {
				// An aborted scan is not a read segment: the counters
				// only cover segments decoded end to end.
				p.err = err
				break
			}
			p.stats.SegmentsRead++
			p.stats.BytesRead += si.BodyBytes
		}
		return p
	})
	// Fold in range order into the first range's builder — merging it
	// into an empty one would only copy every row it holds — and let go
	// of each builder once folded.
	var acc *catalog.Builder
	for i := range parts {
		if parts[i].err != nil {
			return nil, nil, parts[i].err
		}
		stats.add(parts[i].stats)
		if acc == nil {
			acc = parts[i].b
		} else {
			acc.Merge(parts[i].b)
		}
		parts[i].b = nil
	}
	if acc == nil {
		acc = catalog.NewBuilder(meta.Host, meta.Start, meta.Days, nil)
	}
	r.met.noteRead(&stats)
	return acc.Build(), &stats, nil
}

// ReplayRecords hands every matching CDR/xDR to sink sequentially, in
// store order — each device's records arrive in their original
// archive order, the order contract downstream aggregation rests on.
//
//roamvet:deadcode-ok test oracle: the sequential reference the concurrent Replay and Compact are compared against
func (r *Reader) ReplayRecords(q Query, sink func(cdrs.Record)) (*ReplayStats, error) {
	stats := r.baseStats()
	keep := q.keep(newDayClock(r.man.Start))
	dec := cdrs.NewDecoder(nil)
	for _, i := range r.selectSegments(q, &stats) {
		si := &r.man.Segments[i]
		n, err := scanSegment(r.dir, si, dec, keep, func(_ int, _ []byte, rec *cdrs.Record) {
			stats.RecordsKept++
			sink(*rec)
		})
		stats.RecordsRead += int64(n)
		if err != nil {
			// A segment that fails its scan is not "read". RecordsRead
			// can still count a validated prefix of it, but only of a
			// body whose CRC held — a record that fails its check, or a
			// record-count mismatch.
			return &stats, err
		}
		stats.SegmentsRead++
		stats.BytesRead += si.BodyBytes
	}
	r.met.noteRead(&stats)
	return &stats, nil
}

// bodyPool recycles segment-body buffers between scans. Segments of
// one store are about the same size, so a returned buffer usually fits
// the next body; decoded records copy what they keep (see
// cdrs.Decoder), so nothing outlives the scan that filled the buffer.
var bodyPool = sync.Pool{New: func() any { return new([]byte) }}

// scanSegment reads one sealed segment body in a single read, verifies
// its length and CRC against the manifest entry, and only then reads
// it through dec (reset onto the body, so its APN table carries over
// from earlier scans): every frame is length-checked and APN-validated
// and then offered to keep (nil keeps all), and visit sees each kept
// record, decoded, with its index in the segment and its wire frame,
// which aliases a pooled buffer and is valid only during the call. A body that fails its CRC
// delivers nothing. It returns how many frames validated — the whole
// segment on success, the prefix before the failing record otherwise.
// A size, CRC or record-count mismatch and a record that fails its
// check all report the segment as corrupt. The manifest's Bytes field
// covers body, Bloom filter and footer.
func scanSegment(dir string, si *SegmentInfo, dec *cdrs.Decoder, keep func(frame []byte) bool, visit func(i int, frame []byte, rec *cdrs.Record)) (int, error) {
	f, err := os.Open(filepath.Join(dir, si.Name))
	if err != nil {
		return 0, fmt.Errorf("store: opening segment %s: %w", si.Name, err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("store: stat segment %s: %w", si.Name, err)
	}
	// The manifest is input from disk. Tying its sizes to the file's
	// real length (without an addition a huge BodyBytes could overflow)
	// also bounds the buffer below: a scan never allocates more than
	// the file holds.
	if st.Size() != si.Bytes || si.BodyBytes < 0 || si.BodyBytes > si.Bytes-footerV2Size {
		return 0, fmt.Errorf("%w: %s is %d bytes, manifest says %d",
			ErrCorrupt, si.Name, st.Size(), si.Bytes)
	}
	bufp := bodyPool.Get().(*[]byte)
	defer bodyPool.Put(bufp)
	if int64(cap(*bufp)) < si.BodyBytes {
		*bufp = make([]byte, si.BodyBytes)
	}
	body := (*bufp)[:si.BodyBytes]
	if _, err := io.ReadFull(f, body); err != nil {
		return 0, fmt.Errorf("store: reading segment %s: %w", si.Name, err)
	}
	if crc := crc32.Checksum(body, crcTable); crc != si.BodyCRC {
		return 0, fmt.Errorf("%w: %s body CRC %08x, footer sealed %08x", ErrCorrupt, si.Name, crc, si.BodyCRC)
	}
	dec.Reset(body)
	var rec cdrs.Record
	n := 0
	for {
		frame, kept, err := dec.ReadFrame(&rec, keep)
		if err == io.EOF {
			break
		}
		if err != nil {
			return n, fmt.Errorf("%w: %s record %d: %v", ErrCorrupt, si.Name, n, err)
		}
		if kept {
			visit(n, frame, &rec)
		}
		n++
	}
	if n != si.Records {
		return n, fmt.Errorf("%w: %s decoded %d records, footer sealed %d", ErrCorrupt, si.Name, n, si.Records)
	}
	return n, nil
}

// SegmentError is one segment's verification failure.
type SegmentError struct {
	// Name is the segment file.
	Name string
	// Err describes what failed (CRC, length, footer, decode).
	Err string
}

// VerifyReport is the outcome of a full store verification.
type VerifyReport struct {
	// Dir is the verified store directory.
	Dir string
	// Kind is the store's record plane.
	Kind string
	// Manifest reports how the manifest was materialized (schema
	// version, checkpoint/log-tail split, torn log tail).
	Manifest ManifestInfo
	// Segments counts the sealed segments checked.
	Segments int
	// Records totals the records decoded across sealed segments.
	Records int64
	// Bytes totals the segment bytes checked (bodies, Bloom filters
	// and footers).
	Bytes int64
	// Torn lists unsealed segment files (crash residue): present on
	// disk, absent from the manifest.
	Torn []string
	// Corrupt lists sealed segments that failed verification.
	Corrupt []SegmentError
}

// OK reports whether the store verified clean: no torn files, no
// corrupt segments.
func (v *VerifyReport) OK() bool { return len(v.Torn) == 0 && len(v.Corrupt) == 0 }

// String renders the report, one line per problem.
func (v *VerifyReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "store %s: kind=%s segments=%d records=%d bytes=%d\n",
		v.Dir, v.Kind, v.Segments, v.Records, v.Bytes)
	fmt.Fprintf(&b, "manifest v%d: checkpoint=%d log-tail=%d",
		v.Manifest.Version, v.Manifest.CheckpointSegments, v.Manifest.TailSegments)
	if v.Manifest.TornLogTail {
		b.WriteString(" (torn log tail discarded)")
	}
	b.WriteString("\n")
	for _, t := range v.Torn {
		fmt.Fprintf(&b, "TORN    %s: not sealed by the manifest (crash mid-write?)\n", t)
	}
	for _, c := range v.Corrupt {
		fmt.Fprintf(&b, "CORRUPT %s: %s\n", c.Name, c.Err)
	}
	if v.OK() {
		b.WriteString("ok\n")
	}
	return b.String()
}

// Verify re-reads every sealed segment end to end: the footer must
// decode, match its manifest entry — including the Bloom-filter
// frame, cross-checked against both the manifest copy and the on-disk
// filter bytes — and seal the exact body the CRC and record count
// were computed over. Torn files are reported without being read.
// Verification never aborts early — the report covers the whole
// store.
func (r *Reader) Verify() *VerifyReport {
	rep := &VerifyReport{
		Dir:      r.dir,
		Kind:     r.man.Kind,
		Manifest: r.minf,
		Segments: len(r.man.Segments),
		Torn:     append([]string(nil), r.torn...),
	}
	dec := cdrs.NewDecoder(nil)
	for i := range r.man.Segments {
		si := &r.man.Segments[i]
		if err := r.verifySegment(si, dec); err != nil {
			rep.Corrupt = append(rep.Corrupt, SegmentError{Name: si.Name, Err: err.Error()})
			continue
		}
		rep.Records += int64(si.Records)
		rep.Bytes += si.Bytes
	}
	return rep
}

// verifySegment checks one sealed segment: footer decode and
// manifest agreement first — every index field pruning trusts,
// including the visited set and the Bloom filter — then the full
// body scan through dec, which checks every frame and decodes none.
func (r *Reader) verifySegment(si *SegmentInfo, dec *cdrs.Decoder) error {
	footer, ft, err := r.readFooter(si)
	if err != nil {
		return err
	}
	if ft.kind != kindByteCDR {
		return fmt.Errorf("%w: footer kind %d does not match %q store", ErrCorrupt, ft.kind, KindCDR)
	}
	if footer.Records != si.Records || footer.BodyCRC != si.BodyCRC ||
		footer.MinDay != si.MinDay || footer.MaxDay != si.MaxDay ||
		footer.MinDevice != si.MinDevice || footer.MaxDevice != si.MaxDevice ||
		footer.VisitedOverflow != si.VisitedOverflow ||
		!equalVisited(footer.Visited, si.Visited) {
		return fmt.Errorf("%w: footer disagrees with manifest entry", ErrCorrupt)
	}
	if err := r.verifyBloom(si, ft); err != nil {
		return err
	}
	_, err = scanSegment(r.dir, si, dec, keepNone, nil)
	return err
}

// verifyBloom cross-checks a segment's Bloom filter three ways: the
// footer frame against the manifest copy, and the on-disk filter
// bytes (between body and footer) against the footer's CRC.
func (r *Reader) verifyBloom(si *SegmentInfo, ft footerTail) error {
	if int(ft.bloomLen) != len(si.Bloom) || int(ft.bloomK) != si.BloomHashes {
		return fmt.Errorf("%w: footer bloom frame disagrees with manifest entry", ErrCorrupt)
	}
	if ft.bloomLen == 0 {
		return nil
	}
	if crc32.Checksum(si.Bloom, crcTable) != ft.bloomCRC {
		return fmt.Errorf("%w: manifest bloom filter fails the footer CRC", ErrCorrupt)
	}
	f, err := os.Open(filepath.Join(r.dir, si.Name))
	if err != nil {
		return fmt.Errorf("store: opening segment %s: %w", si.Name, err)
	}
	defer f.Close()
	disk := make([]byte, ft.bloomLen)
	if _, err := f.ReadAt(disk, si.BodyBytes); err != nil {
		return fmt.Errorf("store: reading %s bloom filter: %w", si.Name, err)
	}
	if crc32.Checksum(disk, crcTable) != ft.bloomCRC {
		return fmt.Errorf("%w: on-disk bloom filter fails the footer CRC", ErrCorrupt)
	}
	return nil
}

// keepNone is the filter of a scan that only checks frames: nothing is
// decoded, so nothing is visited.
func keepNone([]byte) bool { return false }

// equalVisited compares two visited-network index lists (both are in
// first-seen order by construction; nil and empty compare equal).
func equalVisited(a, b []string) bool {
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

// readFooter loads and decodes a sealed segment's footer (the file's
// trailing footerV2Size bytes), returning the index entry and the
// footer's tail fields.
func (r *Reader) readFooter(si *SegmentInfo) (SegmentInfo, footerTail, error) {
	f, err := os.Open(filepath.Join(r.dir, si.Name))
	if err != nil {
		return SegmentInfo{}, footerTail{}, fmt.Errorf("store: opening segment %s: %w", si.Name, err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return SegmentInfo{}, footerTail{}, fmt.Errorf("store: stat segment %s: %w", si.Name, err)
	}
	if st.Size() < footerV2Size {
		return SegmentInfo{}, footerTail{}, fmt.Errorf("%w: %s too short for a footer", ErrCorrupt, si.Name)
	}
	var buf [footerV2Size]byte
	if _, err := f.ReadAt(buf[:], st.Size()-footerV2Size); err != nil {
		return SegmentInfo{}, footerTail{}, fmt.Errorf("store: reading %s footer: %w", si.Name, err)
	}
	footer, ft, err := decodeFooter(buf[:])
	if err != nil {
		return SegmentInfo{}, footerTail{}, fmt.Errorf("%s: %w", si.Name, err)
	}
	return footer, ft, nil
}
