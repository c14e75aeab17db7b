package store

// Manifest persistence: the append-only MANIFEST.log plus the
// MANIFEST.ckpt checkpoint.
//
// Each seal appends exactly one framed entry to the log:
//
//	offset  size  field
//	0       4     magic "WRML"
//	4       4     payload length (big endian)
//	8       n     payload: the SegmentInfo as JSON
//	8+n     4     CRC-32C of the payload
//
// and the log is fsynced, which is the whole durability cost of a
// seal — O(1) in segment count. Periodically (geometrically, so the
// amortized cost stays O(1)) the writer snapshots the full manifest
// into MANIFEST.ckpt with the usual write-tmp → fsync → rename → sync
// dir dance, recording in LogEntries how many log entries the
// snapshot covers. Because the log entry is durable before any
// checkpoint that counts it, a surviving checkpoint always covers a
// prefix of the surviving log.
//
// Open materializes the manifest as checkpoint + log tail. A torn
// final log entry (crash mid-append) is discarded — the segment it
// described is then reported as torn. A log shorter than the checkpoint's coverage adds no
// tail; the checkpoint already carries those segments.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// manifestLogMagic frames each MANIFEST.log entry.
const manifestLogMagic = "WRML"

// manifestLogMaxPayload caps a single log entry's JSON payload; a
// larger length prefix is treated as a torn/corrupt tail.
const manifestLogMaxPayload = 1 << 26

// appendLogEntry writes one framed manifest-log entry for si to w.
func appendLogEntry(w io.Writer, si *SegmentInfo) error {
	payload, err := json.Marshal(si)
	if err != nil {
		return fmt.Errorf("store: encode manifest log entry: %w", err)
	}
	buf := make([]byte, 0, 12+len(payload))
	buf = append(buf, manifestLogMagic...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	buf = binary.BigEndian.AppendUint32(buf, crc32.Checksum(payload, crcTable))
	_, err = w.Write(buf)
	return err
}

// decodeLogEntries parses a manifest log image, returning every
// complete, CRC-valid entry before the first damage. torn reports
// whether trailing bytes were discarded (a partial frame, a CRC
// mismatch, or garbage after the last whole entry) — tolerated, not
// fatal, because a crash mid-append legitimately leaves one.
func decodeLogEntries(b []byte) (entries []SegmentInfo, torn bool) {
	for len(b) > 0 {
		if len(b) < 8 || string(b[0:4]) != manifestLogMagic {
			return entries, true
		}
		n := binary.BigEndian.Uint32(b[4:8])
		if n > manifestLogMaxPayload || len(b) < 12+int(n) {
			return entries, true
		}
		payload := b[8 : 8+n]
		if crc32.Checksum(payload, crcTable) != binary.BigEndian.Uint32(b[8+n:12+n]) {
			return entries, true
		}
		var si SegmentInfo
		if err := json.Unmarshal(payload, &si); err != nil {
			return entries, true
		}
		entries = append(entries, si)
		b = b[12+n:]
	}
	return entries, false
}

// ManifestInfo describes how a store's manifest was materialized at
// Open: which schema version was found and how the segment index
// split between checkpoint and log tail. roamstore ls/verify surface
// it; it carries no information replay needs.
type ManifestInfo struct {
	// Version is the manifest schema version found on disk (2 =
	// MANIFEST.ckpt + MANIFEST.log).
	Version int
	// CheckpointSegments counts the segments carried by the
	// checkpoint.
	CheckpointSegments int
	// TailSegments counts the segments recovered from the log past
	// the checkpoint's coverage.
	TailSegments int
	// TornLogTail reports that trailing bytes of MANIFEST.log were
	// discarded as incomplete — the normal residue of a crash
	// mid-seal.
	TornLogTail bool
}

// loadManifest reads a store's manifest: the checkpoint plus the log
// tail. The returned manifest always has TotalRecords recomputed from
// its segment list and LogEntries cleared (it describes a checkpoint
// file, not a materialized manifest). A directory with no checkpoint
// but a v1 MANIFEST.json is rejected as an unsupported version, and so
// is a checkpoint whose kind is not KindCDR: this is the one place a
// store's kind enters the program, so nothing past Open re-checks it.
func loadManifest(dir string) (Manifest, ManifestInfo, error) {
	var man Manifest
	var info ManifestInfo
	ckptRaw, err := os.ReadFile(filepath.Join(dir, ManifestCheckpointName))
	if errors.Is(err, fs.ErrNotExist) {
		if _, v1err := os.Stat(filepath.Join(dir, ManifestName)); v1err == nil {
			return man, info, fmt.Errorf("store: unsupported manifest version 1 (%s without %s)", ManifestName, ManifestCheckpointName)
		}
	}
	if err != nil {
		return man, info, fmt.Errorf("store: read manifest: %w", err)
	}
	if err := json.Unmarshal(ckptRaw, &man); err != nil {
		return man, info, fmt.Errorf("store: parse %s: %w", ManifestCheckpointName, err)
	}
	if man.Version != manifestVersionV2 {
		return man, info, fmt.Errorf("store: unsupported manifest version %d in %s", man.Version, ManifestCheckpointName)
	}
	if man.Kind != KindCDR {
		return man, info, fmt.Errorf("store: unsupported store kind %q in %s (want %q)", man.Kind, ManifestCheckpointName, KindCDR)
	}
	info.Version = manifestVersionV2
	info.CheckpointSegments = len(man.Segments)
	logRaw, err := os.ReadFile(filepath.Join(dir, ManifestLogName))
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return man, info, fmt.Errorf("store: read %s: %w", ManifestLogName, err)
	}
	entries, torn := decodeLogEntries(logRaw)
	info.TornLogTail = torn
	if len(entries) > man.LogEntries {
		tail := entries[man.LogEntries:]
		info.TailSegments = len(tail)
		man.Segments = append(man.Segments, tail...)
	}
	man.LogEntries = 0
	var total int64
	for i := range man.Segments {
		total += int64(man.Segments[i].Records)
	}
	man.TotalRecords = total
	return man, info, nil
}

// writeCheckpoint atomically replaces the store's MANIFEST.ckpt with
// man: write to a temp file, fsync it, rename into place, then fsync
// the directory so the rename itself is durable. man.LogEntries must
// already state how many log entries the snapshot covers.
func writeCheckpoint(dir string, man *Manifest) error {
	data, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return fmt.Errorf("store: encode checkpoint: %w", err)
	}
	data = append(data, '\n')
	path := filepath.Join(dir, ManifestCheckpointName)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return syncDir(dir)
}

// storeExists reports whether dir already holds a store of any
// manifest version — the refuse-to-overwrite check writers run.
func storeExists(dir string) bool {
	for _, name := range []string{ManifestCheckpointName, ManifestLogName, ManifestName} {
		if _, err := os.Stat(filepath.Join(dir, name)); err == nil {
			return true
		}
	}
	return false
}

// syncDir fsyncs a directory so a just-renamed or just-created entry
// in it is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
