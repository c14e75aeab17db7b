package store

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"whereroam/internal/cdrs"
	"whereroam/internal/mccmnc"
)

// FuzzSegmentFooter fuzzes the fixed-size footer decoder: arbitrary
// bytes must come back as a clean error or a bounded SegmentInfo,
// never a panic or an over-read — and anything that is not a version-2
// footer, a well-formed v1 footer included, must be rejected.
func FuzzSegmentFooter(f *testing.F) {
	si := SegmentInfo{
		Name: "seg-000000.wrseg", Records: 128, BodyBytes: 4096, BodyCRC: 0xdeadbeef,
		MinDay: 0, MaxDay: 5, MinDevice: 0x1000, MaxDevice: 0x2000,
		Bloom: make([]byte, bloomMinBytes), BloomHashes: bloomHashCount,
	}
	valid := encodeFooter(0, &si, []mccmnc.PLMN{mccmnc.MustParse("23410"), mccmnc.MustParse("26201")})
	f.Add(valid[:])
	overflow := si
	overflow.VisitedOverflow = true
	validOv := encodeFooter(1, &overflow, nil)
	f.Add(validOv[:])
	f.Add(v1FooterOf(valid)) // must-reject: the retired 124-byte format
	f.Add([]byte("WRSF"))
	f.Add(make([]byte, 124))
	f.Add(make([]byte, footerV2Size))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, _, err := decodeFooter(data)
		if err != nil {
			return
		}
		if len(data) != footerV2Size || data[4] != footerVersionV2 {
			t.Fatalf("decoded a %d-byte footer of version %d", len(data), data[4])
		}
		if len(got.Visited) > maxFooterVisited {
			t.Fatalf("decoded %d visited networks, footer indexes at most %d",
				len(got.Visited), maxFooterVisited)
		}
		if got.Records < 0 {
			t.Fatalf("decoded negative record count %d", got.Records)
		}
	})
}

// FuzzManifest fuzzes store opening with arbitrary MANIFEST.ckpt
// bytes: Open must reject garbage with an error (and confine segment
// names to the store directory), never panic; when it succeeds, Verify
// and Replay must also stay panic-free.
func FuzzManifest(f *testing.F) {
	// Seed with a real store's checkpoint.
	dir := f.TempDir()
	w, err := NewWriter(dir, Meta{Host: mccmnc.MustParse("23410"), Days: 3}, 4)
	if err != nil {
		f.Fatal(err)
	}
	for _, r := range feedRecords(4, 3) {
		if err := w.Append(r); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	validCkpt, err := os.ReadFile(filepath.Join(dir, ManifestCheckpointName))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(validCkpt)
	f.Add([]byte(`{"version":2,"kind":"cdr","days":3,"segments":[{"name":"../x.wrseg","records":1}]}`))
	f.Add([]byte(`{"version":1}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"version":2,"kind":"cdr","segments":[{"name":"seg-000000.wrseg","records":-1,"bytes":-5}]}`))
	f.Add([]byte(`{"version":2,"kind":"signaling","days":3,"segments":[]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Reject obviously huge inputs to keep iterations fast.
		if len(data) > 1<<16 {
			return
		}
		fdir := t.TempDir()
		if err := os.WriteFile(filepath.Join(fdir, ManifestCheckpointName), data, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := Open(fdir)
		if err != nil {
			return
		}
		// Whatever Open accepted must stay panic-free downstream.
		var man Manifest
		if err := json.Unmarshal(data, &man); err != nil {
			t.Fatalf("Open accepted a manifest json.Unmarshal rejects: %v", err)
		}
		if man.Kind != KindCDR {
			t.Fatalf("Open accepted a %q store", man.Kind)
		}
		r.Verify()
		_, _, _ = r.Replay(Query{}, 2)
		_, _ = r.ReplayRecords(Query{}.Days(0, 1), func(cdrs.Record) {})
	})
}

// FuzzManifestLog fuzzes the MANIFEST.log entry decoder: arbitrary
// bytes must decode to a (possibly empty) entry prefix plus a torn
// flag, never panic — and what decodes must round-trip through the
// encoder.
func FuzzManifestLog(f *testing.F) {
	// Seed with real log images: whole, truncated mid-entry, and with
	// trailing garbage.
	var buf bytes.Buffer
	for i, si := range []SegmentInfo{
		{Name: "seg-000000.wrseg", Records: 4, Bytes: 400, BodyBytes: 200, BodyCRC: 1,
			MinDay: 0, MaxDay: 1, MinDevice: 10, MaxDevice: 20,
			Visited: []string{"23410"}, Bloom: make([]byte, bloomMinBytes), BloomHashes: bloomHashCount},
		{Name: "seg-000001.wrseg", Records: 4, Bytes: 410, BodyBytes: 210, BodyCRC: 2,
			MinDay: 1, MaxDay: 2, MinDevice: 5, MaxDevice: 400, VisitedOverflow: true},
	} {
		if err := appendLogEntry(&buf, &si); err != nil {
			f.Fatalf("seed entry %d: %v", i, err)
		}
	}
	whole := append([]byte(nil), buf.Bytes()...)
	f.Add(whole)
	f.Add(whole[:len(whole)-7])
	f.Add(append(append([]byte(nil), whole...), "WRML???"...))
	f.Add([]byte("WRML"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<16 {
			return
		}
		entries, torn := decodeLogEntries(data)
		var re bytes.Buffer
		for i := range entries {
			if err := appendLogEntry(&re, &entries[i]); err != nil {
				t.Fatalf("re-encoding decoded entry %d: %v", i, err)
			}
		}
		got, gotTorn := decodeLogEntries(re.Bytes())
		if gotTorn {
			t.Fatal("re-encoded log decodes as torn")
		}
		if len(got) != len(entries) || (len(entries) > 0 && !reflect.DeepEqual(got, entries)) {
			t.Fatalf("log entries do not round-trip: %d in, %d out", len(entries), len(got))
		}
		_ = torn
	})
}
