package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"whereroam/internal/cdrs"
	"whereroam/internal/mccmnc"
)

// A v2 store must tolerate a torn final MANIFEST.log entry: Open
// drops the incomplete entry, its segment file shows up as torn, and
// everything sealed before it replays — the crash-mid-seal contract.
func TestManifestLogTornTailTolerated(t *testing.T) {
	const days = 4
	recs := feedRecords(20, days)
	dir := t.TempDir()
	writeStore(t, dir, days, 16, recs)

	full, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	nSeg := len(full.Manifest().Segments)
	if nSeg < 3 {
		t.Fatalf("fixture too small: %d segments", nSeg)
	}

	logPath := filepath.Join(dir, ManifestLogName)
	raw, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}

	// Trailing garbage after the last whole entry: flagged, harmless.
	if err := os.WriteFile(logPath, append(append([]byte(nil), raw...), "WRML\x00\x00"...), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatalf("Open with garbage log tail: %v", err)
	}
	if !r.ManifestInfo().TornLogTail {
		t.Fatal("garbage log tail not reported")
	}
	if got := len(r.Manifest().Segments); got != nSeg {
		t.Fatalf("garbage tail lost segments: %d of %d", got, nSeg)
	}

	// Truncation inside the final entry: that segment drops out of the
	// manifest and is reported as a torn file instead.
	if err := os.WriteFile(logPath, raw[:len(raw)-5], 0o644); err != nil {
		t.Fatal(err)
	}
	r, err = Open(dir)
	if err != nil {
		t.Fatalf("Open with truncated log: %v", err)
	}
	if got := len(r.Manifest().Segments); got != nSeg-1 {
		t.Fatalf("truncated log kept %d segments, want %d", got, nSeg-1)
	}
	if !r.ManifestInfo().TornLogTail {
		t.Fatal("truncated log tail not reported")
	}
	lastName := full.Manifest().Segments[nSeg-1].Name
	foundTorn := false
	for _, n := range r.Torn() {
		if n == lastName {
			foundTorn = true
		}
	}
	if !foundTorn {
		t.Fatalf("segment %s of the torn entry not reported torn (torn=%v)", lastName, r.Torn())
	}
	var got []cdrs.Record
	if _, err := r.ReplayRecords(Query{}, func(rec cdrs.Record) { got = append(got, rec) }); err != nil {
		t.Fatal(err)
	}
	wantRecs := 0
	for _, si := range full.Manifest().Segments[:nSeg-1] {
		wantRecs += si.Records
	}
	if len(got) != wantRecs {
		t.Fatalf("replay after torn tail: %d records, want %d", len(got), wantRecs)
	}
	if !reflect.DeepEqual(got, recs[:wantRecs]) {
		t.Fatal("replay after torn tail differs from the sealed prefix")
	}
}

// A stale checkpoint plus a longer log must recover every segment the
// log covers — the crash-between-seal-and-checkpoint case — and the
// recovered view must replay identically to the healthy one.
func TestStaleCheckpointLongerLogRecovers(t *testing.T) {
	const days = 6
	// Enough records for > checkpointMinTail segments so a real
	// checkpoint happened mid-write.
	recs := feedRecords(90, days)
	dir := t.TempDir()
	writeStore(t, dir, days, 8, recs)

	healthy, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	minf := healthy.ManifestInfo()
	if minf.CheckpointSegments == 0 || minf.TailSegments == 0 {
		t.Fatalf("fixture must have both checkpoint and log tail, got %+v", minf)
	}
	wantCat, _, err := healthy.Replay(Query{}, 1)
	if err != nil {
		t.Fatal(err)
	}

	// Roll the checkpoint back to a much older prefix.
	stale := *healthy.Manifest()
	stale.Segments = append([]SegmentInfo(nil), stale.Segments[:3]...)
	stale.LogEntries = 3
	stale.Version = manifestVersionV2
	if err := writeCheckpoint(dir, &stale); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(r.Manifest().Segments), len(healthy.Manifest().Segments); got != want {
		t.Fatalf("stale checkpoint recovery found %d segments, want %d", got, want)
	}
	if r.ManifestInfo().CheckpointSegments != 3 {
		t.Fatalf("ManifestInfo checkpoint segments = %d, want 3", r.ManifestInfo().CheckpointSegments)
	}
	if !reflect.DeepEqual(r.Manifest().Segments, healthy.Manifest().Segments) {
		t.Fatal("recovered segment index differs from the healthy one")
	}
	gotCat, _, err := r.Replay(Query{}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantCat, gotCat) {
		t.Fatal("replay from recovered manifest differs from healthy replay")
	}
	if rep := r.Verify(); !rep.OK() {
		t.Fatalf("recovered store fails verification:\n%s", rep)
	}
}

// The checkpoint is written atomically: stray .tmp residue (a crash
// mid-checkpoint, before the rename) must not affect Open, and the
// surviving checkpoint must still be the previous complete one.
func TestCheckpointAtomicTmpResidue(t *testing.T) {
	const days = 3
	recs := feedRecords(16, days)
	dir := t.TempDir()
	writeStore(t, dir, days, 8, recs)

	want, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestCheckpointName+".tmp"), []byte("partial garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := Open(dir)
	if err != nil {
		t.Fatalf("Open with checkpoint tmp residue: %v", err)
	}
	if !reflect.DeepEqual(r.Manifest(), want.Manifest()) {
		t.Fatal("checkpoint tmp residue changed the manifest view")
	}
	if rep := r.Verify(); !rep.OK() {
		t.Fatalf("store with tmp residue fails verification:\n%s", rep)
	}
}

// Checkpointing is geometric: a store with well over checkpointMinTail
// segments must have a checkpoint covering a prefix, a bounded log
// tail, and the split must be exactly what ManifestInfo reports.
func TestCheckpointGeometricCoverage(t *testing.T) {
	const days = 6
	recs := feedRecords(90, days) // 1080 records, 135 segments at 8/segment
	dir := t.TempDir()
	writeStore(t, dir, days, 8, recs)

	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	minf := r.ManifestInfo()
	if minf.Version != manifestVersionV2 {
		t.Fatalf("manifest version %d, want 2", minf.Version)
	}
	total := len(r.Manifest().Segments)
	if minf.CheckpointSegments+minf.TailSegments != total {
		t.Fatalf("checkpoint %d + tail %d != %d segments", minf.CheckpointSegments, minf.TailSegments, total)
	}
	if minf.CheckpointSegments < checkpointMinTail {
		t.Fatalf("no meaningful checkpoint after %d segments: %+v", total, minf)
	}
	// Geometric rule: the tail never exceeds the covered prefix (plus
	// the threshold before the first checkpoint fires).
	if minf.TailSegments >= minf.CheckpointSegments+checkpointMinTail {
		t.Fatalf("log tail %d outgrew checkpoint %d", minf.TailSegments, minf.CheckpointSegments)
	}
}

// v1 stores are no longer read, but they are rejected by name rather
// than misread: a directory holding only MANIFEST.json fails Open with
// the unsupported manifest version in the error.
func TestOpenRejectsV1Manifest(t *testing.T) {
	dir := t.TempDir()
	v1 := []byte(`{"version":1,"kind":"cdr","days":3,"segments":[]}`)
	if err := os.WriteFile(filepath.Join(dir, ManifestName), v1, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir)
	if err == nil || !strings.Contains(err.Error(), "unsupported manifest version 1") {
		t.Fatalf("Open of a v1 store: %v, want an unsupported-version error", err)
	}
	// Writers still refuse to build a store over it.
	if _, err := NewWriter(dir, testMeta(3), 4); err == nil {
		t.Fatal("NewWriter accepted a directory holding a v1 manifest")
	}
}

// A store's kind enters the program at Open and nowhere else, so Open
// rejects by name a checkpoint naming any plane but "cdr" — a signaling
// store an older build wrote, or no kind at all — instead of letting
// Verify and Replay scan it as CDRs.
func TestOpenRejectsForeignKind(t *testing.T) {
	for _, kind := range []string{"signaling", ""} {
		dir := t.TempDir()
		writeStore(t, dir, 3, 4, feedRecords(4, 3))
		path := filepath.Join(dir, ManifestCheckpointName)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		forged := bytes.Replace(raw, []byte(`"kind": "cdr"`), []byte(`"kind": "`+kind+`"`), 1)
		if bytes.Equal(forged, raw) {
			t.Fatal("checkpoint fixture names no kind to rewrite")
		}
		if err := os.WriteFile(path, forged, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = Open(dir)
		if want := fmt.Sprintf("unsupported store kind %q", kind); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("Open of a kind=%q store: %v, want an error saying %s", kind, err, want)
		}
	}
}

// v1FooterOf re-frames a footer's shared 120-byte field prefix the way
// a v1 writer sealed it: version byte 1, closing CRC at offset 120,
// 124 bytes.
func v1FooterOf(v2 [footerV2Size]byte) []byte {
	b := append([]byte(nil), v2[:120]...)
	b[4] = 1
	return binary.BigEndian.AppendUint32(b, crc32.Checksum(b, crcTable))
}

// A well-formed 124-byte version-1 footer is rejected with the
// unsupported version in the error, not decoded.
func TestDecodeFooterRejectsV1(t *testing.T) {
	si := SegmentInfo{Records: 8, MinDay: 0, MaxDay: 2, MinDevice: 1, MaxDevice: 9, BodyCRC: 7}
	v1 := v1FooterOf(encodeFooter(kindByteCDR, &si, []mccmnc.PLMN{mccmnc.MustParse("23410")}))
	if len(v1) != 124 {
		t.Fatalf("v1 footer fixture is %d bytes", len(v1))
	}
	_, _, err := decodeFooter(v1)
	if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "unsupported footer version 1") {
		t.Fatalf("decodeFooter of a v1 footer: %v, want an unsupported-version error", err)
	}
}
