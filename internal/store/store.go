// Package store implements the segmented, indexed, append-only
// archive the paper's "national feed archived once, analyzed many
// times" workflow needs (§2–3): a durable on-disk form of the CDR/xDR
// record stream that internal/ingest aggregates live.
//
// A store is a directory of fixed-record-count segment files plus a
// manifest. Each segment body is a standalone stream of the
// internal/cdrs binary wire codec, sealed by a fixed-size footer
// that records the segment's record count, event-day range, device-ID
// range, visited-network set, a device-hash Bloom filter and a CRC of
// the body. The manifest mirrors every sealed footer, so a reader can
// plan a replay — and prune whole segments against a day / device /
// visited predicate — without touching segment bodies. A crash
// mid-segment leaves a file the manifest does not cover ("torn");
// verification reports it and replay skips it, while every sealed
// segment stays readable.
//
// The manifest itself is an append-only log plus a checkpoint
// (manifest v2): each seal appends one CRC-framed [SegmentInfo] entry
// to MANIFEST.log and periodically snapshots the whole index into
// MANIFEST.ckpt, so seal cost is O(1) in segment count. [Open] reads
// the checkpoint plus the log tail and tolerates a torn final log
// entry.
//
// Writing is a [probe.Fanout] sink away from the live pipeline: point
// [Writer.Sink] at the same records a
// [whereroam/internal/ingest.CatalogIngester] is aggregating and the
// feed is persisted and ingested in one pass. Reading back, a
// [Reader] plans segment selection from a [Query] ([Reader.Plan]) and
// [Reader.Replay] rebuilds the devices-catalog from the
// archive concurrently — one builder and one decoder per worker, each
// over a contiguous range of the selected segments, folded in range
// order — bit-identical to a live build at any worker count
// (docs/ARCHITECTURE.md derives the argument; the root
// determinism tests pin it). [Compact] merges N tap-order stores into
// one time-ordered store whose replay is bit-identical to replaying
// the inputs.
//
// # Snapshot invariant
//
// A [Reader] is a point-in-time snapshot: Open fixes the segment
// set from the manifest, sealed segments are immutable, and the
// manifest checkpoint is only ever replaced atomically while the log
// is append-only. A reader holding a Reader (or a catalog built from
// one) therefore observes a frozen store even while a [Writer]
// keeps appending to the same directory — concurrent seals become
// visible only to a later Open. The serving layer (internal/serve)
// leans on this: cached catalog slices never need locking against the
// archiver.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"time"

	"whereroam/internal/mccmnc"
)

// KindCDR is the one record plane a store archives: CDR/xDR records in
// the internal/cdrs wire codec. The manifest names it and every footer
// carries kindByteCDR; Open rejects a manifest naming anything else.
const KindCDR = "cdr"

// kindByteCDR is KindCDR's footer encoding.
const kindByteCDR = 0

// DefaultSegmentRecords is the records-per-segment roll threshold
// used when a writer is configured with a non-positive value: large
// enough that footer and manifest overhead is noise, small enough
// that day- and device-range pruning has segments to skip.
const DefaultSegmentRecords = 8192

// ManifestName is the manifest file of v1 stores, a format this
// package no longer reads: Open rejects a directory that holds it
// without a checkpoint, and writers refuse to create a store over it.
const ManifestName = "MANIFEST.json"

// ManifestLogName is the v2 append-only manifest log: one CRC-framed
// SegmentInfo entry per sealed segment, appended (never rewritten) at
// each seal.
const ManifestLogName = "MANIFEST.log"

// ManifestCheckpointName is the v2 manifest checkpoint: an atomically
// replaced JSON snapshot of the manifest covering a prefix of the
// log, so Open parses the checkpoint plus only the log tail.
const ManifestCheckpointName = "MANIFEST.ckpt"

// manifestVersionV2 is the manifest schema version: the MANIFEST.log +
// MANIFEST.ckpt pair.
const manifestVersionV2 = 2

// Store errors.
var (
	// ErrCorrupt marks a sealed segment whose body no longer matches
	// its footer/manifest: a CRC mismatch, a record-count mismatch, a
	// resized file, or an undecodable record.
	ErrCorrupt = errors.New("store: segment corrupt")
	// ErrClosed is returned by appends after Close.
	ErrClosed = errors.New("store: writer closed")
)

// Meta is the stream-level metadata a store carries for its readers:
// the observing host and the observation window the records belong
// to. Replay uses it to rebuild catalogs with the same window the
// live build used; the event-day index in segment footers is relative
// to Start.
type Meta struct {
	// Host is the observing MNO (zero for a store without a single
	// observer, e.g. a compacted multi-site store).
	Host mccmnc.PLMN
	// Start is the window start; segment day ranges count from it.
	Start time.Time
	// Days is the window length in days.
	Days int
}

// Manifest is the store-level index: one entry per sealed segment,
// mirroring that segment's footer, plus the stream metadata. It is
// materialized at Open from the checkpoint plus the log tail; each
// seal appends one log entry, so after a crash the manifest covers
// exactly the sealed prefix of the store (a torn final log entry is
// discarded and its segment file reported as torn).
type Manifest struct {
	// Version is the manifest schema version.
	Version int `json:"version"`
	// Kind is the store's record plane, always KindCDR.
	Kind string `json:"kind"`
	// Host is the observing MNO as a concatenated PLMN ("23410"), or
	// empty when the store has none.
	Host string `json:"host,omitempty"`
	// Start is the observation-window start.
	Start time.Time `json:"start"`
	// Days is the observation-window length.
	Days int `json:"days"`
	// SegmentRecords is the configured records-per-segment roll
	// threshold.
	SegmentRecords int `json:"segment_records"`
	// TotalRecords counts the records across all sealed segments.
	TotalRecords int64 `json:"total_records"`
	// LogEntries is, in a checkpoint, the number of MANIFEST.log
	// entries the checkpoint covers: Open takes Segments as the
	// decoded state of that log prefix and appends only entries past
	// it. Zero in materialized manifests returned by readers.
	LogEntries int `json:"log_entries,omitempty"`
	// Segments lists the sealed segments in write order.
	Segments []SegmentInfo `json:"segments"`
}

// Meta returns the manifest's stream metadata. The host is the zero
// PLMN when the manifest carries none or it fails to parse.
func (m *Manifest) Meta() Meta {
	meta := Meta{Start: m.Start, Days: m.Days}
	if m.Host != "" {
		if p, err := mccmnc.Parse(m.Host); err == nil {
			meta.Host = p
		}
	}
	return meta
}

// SegmentInfo is the manifest's (and footer's) index entry for one
// sealed segment: everything pruning needs without reading the body.
type SegmentInfo struct {
	// Name is the segment file name inside the store directory.
	Name string `json:"name"`
	// Records is the number of records in the segment.
	Records int `json:"records"`
	// Bytes is the full file size, body plus footer.
	Bytes int64 `json:"bytes"`
	// BodyBytes is the codec-stream length the CRC covers.
	BodyBytes int64 `json:"body_bytes"`
	// BodyCRC is the CRC-32C of the body bytes.
	BodyCRC uint32 `json:"body_crc"`
	// MinDay and MaxDay bound the records' event days relative to the
	// store's Start (the same truncation the catalog builder uses).
	MinDay int `json:"min_day"`
	// MaxDay is the inclusive upper event-day bound.
	MaxDay int `json:"max_day"`
	// MinDevice and MaxDevice bound the records' device-ID hashes.
	MinDevice uint64 `json:"min_device"`
	// MaxDevice is the inclusive upper device-hash bound.
	MaxDevice uint64 `json:"max_device"`
	// Visited lists the distinct visited networks seen in the
	// segment (concatenated PLMNs), complete only when
	// VisitedOverflow is false.
	Visited []string `json:"visited,omitempty"`
	// VisitedOverflow marks a segment with more distinct visited
	// networks than the footer indexes; visited-based pruning must
	// then keep the segment.
	VisitedOverflow bool `json:"visited_overflow,omitempty"`
	// Bloom is the segment's device-hash Bloom filter (power-of-two
	// length), mirrored from the bytes stored between the segment
	// body and the footer. Empty for a segment sealed without one;
	// planning then falls back to the min/max device range alone.
	Bloom []byte `json:"bloom,omitempty"`
	// BloomHashes is the probe count (k) the filter was built with.
	BloomHashes int `json:"bloom_hashes,omitempty"`
}

// Segment footer binary layout (fixed size, appended after the Bloom
// filter bytes that follow the codec stream):
//
//	offset  size  field
//	0       4     magic "WRSF"
//	4       1     footer version (2)
//	5       1     kind (0 = cdr)
//	6       4     record count (big endian)
//	10      4     min day (big endian, two's complement)
//	14      4     max day
//	18      8     min device hash
//	26      8     max device hash
//	34      4     CRC-32C of the body bytes
//	38      1     visited-network count (≤ maxFooterVisited)
//	39      1     visited overflow flag
//	40      80    16 × (MCC uint16, MNC uint16, MNC length byte)
//	120     4     Bloom filter length in bytes (0 = none)
//	124     1     Bloom probe count (k)
//	125     4     CRC-32C of the Bloom filter bytes
//	129     4     CRC-32C of footer bytes [0, 129)
//
// The Bloom filter itself is stored between the codec body and the
// footer, so a segment file is BodyBytes + bloom length +
// footerV2Size bytes long. Version 1 (124 bytes, no Bloom frame) is no
// longer read; decodeFooter rejects it by name.
const (
	footerMagic      = "WRSF"
	footerVersionV2  = 2
	footerV2Size     = 133
	maxFooterVisited = 16
)

// footerTail carries the footer fields that are not part of
// SegmentInfo's index view: the store kind byte and the Bloom frame
// the seal/verify paths cross-check against the on-disk filter bytes.
type footerTail struct {
	kind     byte
	bloomLen uint32
	bloomK   byte
	bloomCRC uint32
}

// crcTable is the Castagnoli polynomial both body and footer CRCs
// use.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// dayOf maps an event time to its window day index by truncating the
// whole days since start toward zero. From the window start on it is
// the catalog builder's day; before the start the two can differ — an
// instant less than a day early is day 0 here but outside the
// builder's window. That only makes pruning conservative, which is
// all pruning needs: a footer's day range and a query's day filter
// keep at least every record the builder would keep, and replay's own
// window check drops what the builder drops.
func dayOf(t, start time.Time) int {
	return int(t.Sub(start) / (24 * time.Hour))
}

// dayClock is dayOf for an event time given in Unix nanoseconds, as a
// wire frame carries it: day(ns) equals dayOf(time.Unix(0, ns), start)
// for every ns, by integer arithmetic when start is itself an int64
// nanosecond instant.
type dayClock struct {
	start   time.Time
	startNs int64
	// inRange reports whether startNs is start, exactly; a start
	// outside the nanosecond range (year 1, year 9999) takes dayOf.
	inRange bool
}

func newDayClock(start time.Time) dayClock {
	ns := start.UnixNano()
	return dayClock{start: start, startNs: ns, inRange: time.Unix(0, ns).Equal(start)}
}

// day returns the window day of the event instant ns. Like Time.Sub, a
// difference past the Duration range saturates to its bound.
func (c dayClock) day(ns int64) int {
	if !c.inRange {
		return dayOf(time.Unix(0, ns), c.start)
	}
	d := ns - c.startNs
	if (ns^c.startNs)&(ns^d) < 0 { // the subtraction overflowed
		d = math.MaxInt64
		if ns < c.startNs {
			d = math.MinInt64
		}
	}
	return int(time.Duration(d) / (24 * time.Hour))
}

// encodeFooter renders a segment's footer. The Bloom frame is derived
// from si.Bloom/si.BloomHashes; the filter bytes themselves are
// written by the caller, before the footer.
func encodeFooter(kind byte, si *SegmentInfo, visited []mccmnc.PLMN) [footerV2Size]byte {
	var b [footerV2Size]byte
	copy(b[0:4], footerMagic)
	b[4] = footerVersionV2
	b[5] = kind
	binary.BigEndian.PutUint32(b[6:10], uint32(si.Records))
	binary.BigEndian.PutUint32(b[10:14], uint32(int32(si.MinDay)))
	binary.BigEndian.PutUint32(b[14:18], uint32(int32(si.MaxDay)))
	binary.BigEndian.PutUint64(b[18:26], si.MinDevice)
	binary.BigEndian.PutUint64(b[26:34], si.MaxDevice)
	binary.BigEndian.PutUint32(b[34:38], si.BodyCRC)
	n := len(visited)
	if n > maxFooterVisited {
		n = maxFooterVisited
	}
	b[38] = byte(n)
	if si.VisitedOverflow {
		b[39] = 1
	}
	for i := 0; i < n; i++ {
		off := 40 + 5*i
		binary.BigEndian.PutUint16(b[off:off+2], visited[i].MCC)
		binary.BigEndian.PutUint16(b[off+2:off+4], visited[i].MNC)
		b[off+4] = visited[i].MNCLen
	}
	binary.BigEndian.PutUint32(b[120:124], uint32(len(si.Bloom)))
	b[124] = byte(si.BloomHashes)
	if len(si.Bloom) > 0 {
		binary.BigEndian.PutUint32(b[125:129], crc32.Checksum(si.Bloom, crcTable))
	}
	binary.BigEndian.PutUint32(b[129:133], crc32.Checksum(b[:129], crcTable))
	return b
}

// decodeFooter parses and validates a segment footer and returns the
// index entry it encodes plus the non-index tail fields. Name, Bytes,
// BodyBytes and the Bloom filter bytes are the caller's to fill — the
// footer stores only the filter's length and CRC. Any other footer
// version — the 124-byte version 1 included — is rejected by name.
func decodeFooter(b []byte) (SegmentInfo, footerTail, error) {
	var si SegmentInfo
	var ft footerTail
	if len(b) < 5 || string(b[0:4]) != footerMagic {
		return si, ft, fmt.Errorf("%w: bad footer magic", ErrCorrupt)
	}
	if b[4] != footerVersionV2 {
		return si, ft, fmt.Errorf("%w: unsupported footer version %d", ErrCorrupt, b[4])
	}
	if len(b) != footerV2Size {
		return si, ft, fmt.Errorf("%w: footer is %d bytes, want %d", ErrCorrupt, len(b), footerV2Size)
	}
	if crc32.Checksum(b[:129], crcTable) != binary.BigEndian.Uint32(b[129:133]) {
		return si, ft, fmt.Errorf("%w: footer checksum mismatch", ErrCorrupt)
	}
	ft.bloomLen = binary.BigEndian.Uint32(b[120:124])
	ft.bloomK = b[124]
	ft.bloomCRC = binary.BigEndian.Uint32(b[125:129])
	if ft.bloomLen > bloomMaxBytes {
		return si, ft, fmt.Errorf("%w: footer names a %d-byte bloom filter", ErrCorrupt, ft.bloomLen)
	}
	ft.kind = b[5]
	si.Records = int(binary.BigEndian.Uint32(b[6:10]))
	si.MinDay = int(int32(binary.BigEndian.Uint32(b[10:14])))
	si.MaxDay = int(int32(binary.BigEndian.Uint32(b[14:18])))
	si.MinDevice = binary.BigEndian.Uint64(b[18:26])
	si.MaxDevice = binary.BigEndian.Uint64(b[26:34])
	si.BodyCRC = binary.BigEndian.Uint32(b[34:38])
	nVisited := int(b[38])
	if nVisited > maxFooterVisited {
		return si, ft, fmt.Errorf("%w: footer names %d visited networks", ErrCorrupt, nVisited)
	}
	si.VisitedOverflow = b[39] != 0
	for i := 0; i < nVisited; i++ {
		off := 40 + 5*i
		p := mccmnc.PLMN{
			MCC:    binary.BigEndian.Uint16(b[off : off+2]),
			MNC:    binary.BigEndian.Uint16(b[off+2 : off+4]),
			MNCLen: b[off+4],
		}
		si.Visited = append(si.Visited, p.Concat())
	}
	return si, ft, nil
}

// crcCountWriter tracks the CRC-32C and length of everything written
// through it — the seal-side footer fields.
type crcCountWriter struct {
	w   io.Writer
	crc uint32
	n   int64
}

func (c *crcCountWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	if n > 0 {
		c.crc = crc32.Update(c.crc, crcTable, p[:n])
		c.n += int64(n)
	}
	return n, err
}
