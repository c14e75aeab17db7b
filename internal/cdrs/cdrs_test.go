package cdrs

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"whereroam/internal/apn"
	"whereroam/internal/identity"
	"whereroam/internal/mccmnc"
	"whereroam/internal/radio"
)

func sampleVoice(i int) Record {
	return Record{
		Device:   identity.DeviceID(0x2000 + i),
		Time:     time.Date(2019, 4, 5, 8, 0, i, 0, time.UTC),
		SIM:      mccmnc.MustParse("23410"),
		Visited:  mccmnc.MustParse("23410"),
		Kind:     KindVoice,
		RAT:      radio.RAT3G,
		Duration: time.Duration(30+i) * time.Second,
	}
}

func sampleData(i int) Record {
	return Record{
		Device:   identity.DeviceID(0x3000 + i),
		Time:     time.Date(2019, 4, 5, 9, 0, i, 0, time.UTC),
		SIM:      mccmnc.MustParse("20404"),
		Visited:  mccmnc.MustParse("23410"),
		Kind:     KindData,
		RAT:      radio.RAT2G,
		Duration: 90 * time.Second,
		Bytes:    uint64(1000 + i),
		APN:      apn.MustParse("smhp.centricaplc.com.mnc004.mcc204.gprs"),
	}
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[Kind]string{KindVoice: "voice", KindData: "data"} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

// readAll decodes an entire stream through the stream Reader.
func readAll(r io.Reader) ([]Record, error) {
	rd := NewReader(r)
	var out []Record
	for {
		var rec Record
		err := rd.Read(&rec)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rec)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	recs := make([]Record, 0, 100)
	for i := 0; i < 50; i++ {
		recs = append(recs, sampleVoice(i), sampleData(i))
	}
	var buf bytes.Buffer
	if err := WriteAll(&buf, recs); err != nil {
		t.Fatal(err)
	}
	got, err := readAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("read %d, wrote %d", len(got), len(recs))
	}
	for i := range recs {
		if !got[i].Time.Equal(recs[i].Time) {
			t.Fatalf("record %d time mismatch", i)
		}
		got[i].Time = recs[i].Time
		if got[i] != recs[i] {
			t.Fatalf("record %d: %+v != %+v", i, got[i], recs[i])
		}
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(dev uint64, bytes_ uint64, durMs uint32, data bool) bool {
		r := Record{
			Device:   identity.DeviceID(dev),
			Time:     time.Date(2019, 4, 10, 0, 0, 0, 0, time.UTC),
			SIM:      mccmnc.MustParse("24001"),
			Visited:  mccmnc.MustParse("23410"),
			Kind:     KindVoice,
			RAT:      radio.RAT2G,
			Duration: time.Duration(durMs) * time.Millisecond,
		}
		if data {
			r.Kind = KindData
			r.Bytes = bytes_
			r.APN = apn.MustParse("m2m.telemetry.net")
		}
		var buf bytes.Buffer
		if err := WriteAll(&buf, []Record{r}); err != nil {
			return false
		}
		got, err := readAll(&buf)
		if err != nil || len(got) != 1 {
			return false
		}
		g := got[0]
		if !g.Time.Equal(r.Time) {
			return false
		}
		g.Time = r.Time
		return g == r
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryVoiceDropsAPN(t *testing.T) {
	// Voice records must not serialize an APN even if one is set by
	// mistake: the paper's key observation is that APNs exist only
	// for data service (§4.3: 21% of devices have no APN).
	r := sampleVoice(0)
	r.APN = apn.MustParse("should.not.survive")
	var buf bytes.Buffer
	if err := WriteAll(&buf, []Record{r}); err != nil {
		t.Fatal(err)
	}
	got, err := readAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got[0].APN.IsZero() {
		t.Errorf("voice record came back with APN %v", got[0].APN)
	}
}

func TestBinaryTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteAll(&buf, []Record{sampleData(0)}); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-5]
	_, err := readAll(bytes.NewReader(cut))
	if err != ErrTruncated {
		t.Fatalf("truncation error = %v", err)
	}
}

func TestBinaryBadMagic(t *testing.T) {
	var rec Record
	r := NewReader(strings.NewReader("XXXX\x01\x00"))
	if err := r.Read(&rec); err != ErrBadMagic {
		t.Fatalf("bad magic error = %v", err)
	}
}

func TestBinaryOversizeRejected(t *testing.T) {
	// Craft a stream whose record claims an absurd length.
	var buf bytes.Buffer
	buf.WriteString(magic)
	buf.WriteByte(wireVersion)
	buf.WriteByte(0)
	buf.Write([]byte{0xff, 0xff})
	var rec Record
	r := NewReader(&buf)
	if err := r.Read(&rec); err == nil || !strings.Contains(err.Error(), "length out of range") {
		t.Fatalf("oversize error = %v", err)
	}
}

// decoderReads gives a Decoder the Read signature, dropping frames.
type decoderReads struct{ *Decoder }

func (d decoderReads) Read(rec *Record) error {
	_, _, err := d.ReadFrame(rec, nil)
	return err
}

// bothDecoders opens the stream Reader and the byte-slice Decoder over
// one wire image, for the tests that hold them to the same behaviour.
func bothDecoders(wire []byte) map[string]interface{ Read(*Record) error } {
	return map[string]interface{ Read(*Record) error }{
		"Reader":  NewReader(bytes.NewReader(wire)),
		"Decoder": decoderReads{NewDecoder(wire)},
	}
}

func TestStreamReadNoAllocSteadyState(t *testing.T) {
	// Neither decoder allocates per record once it is warm: a voice
	// record has no strings, and a data record's APN is an APN-table
	// hit after its first appearance.
	recs := make([]Record, 100)
	for i := range recs {
		if i%2 == 0 {
			recs[i] = sampleVoice(i)
		} else {
			recs[i] = sampleData(i)
		}
	}
	var buf bytes.Buffer
	if err := WriteAll(&buf, recs); err != nil {
		t.Fatal(err)
	}
	for name, rd := range bothDecoders(buf.Bytes()) {
		var rec Record
		for i := 0; i < 2; i++ { // warm up: header, buffer, the one APN
			if err := rd.Read(&rec); err != nil {
				t.Fatal(err)
			}
		}
		allocs := testing.AllocsPerRun(40, func() {
			if err := rd.Read(&rec); err != nil && err != io.EOF {
				t.Fatal(err)
			}
		})
		if allocs > 0 {
			t.Errorf("%s: steady-state read allocates %.1f/op, want 0", name, allocs)
		}
	}
}

// A Decoder moved to a second stream with Reset keeps its APN table,
// so a stream whose APNs the first one already named decodes without
// a single allocation.
func TestDecoderResetKeepsAPNTable(t *testing.T) {
	encode := func(from int) []byte {
		recs := make([]Record, 50)
		for i := range recs {
			if i%2 == 0 {
				recs[i] = sampleVoice(from + i)
			} else {
				recs[i] = sampleData(from + i)
			}
		}
		var buf bytes.Buffer
		if err := WriteAll(&buf, recs); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first, second := encode(0), encode(100)
	d := NewDecoder(first)
	var rec Record
	for {
		if _, _, err := d.ReadFrame(&rec, nil); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	n := 0
	allocs := testing.AllocsPerRun(20, func() {
		d.Reset(second)
		n = 0
		for {
			if _, _, err := d.ReadFrame(&rec, nil); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
			n++
		}
	})
	if n != 50 {
		t.Fatalf("second stream decoded %d records after Reset, want 50", n)
	}
	if allocs != 0 {
		t.Errorf("decoding a second stream after Reset allocates %.1f times, want 0", allocs)
	}
}

// A Writer must not emit what no Reader accepts: the reader's length
// bound is the writer's, tested at the exact boundary from both sides.
func TestOversizeAPNBoundary(t *testing.T) {
	rec := sampleData(0)
	rec.APN = apn.APN{NetworkID: strings.Repeat("a", maxWireAPN+1)}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Write(&rec); !errors.Is(err, ErrOversize) {
		t.Fatalf("Write of a %d-byte APN = %v, want ErrOversize", maxWireAPN+1, err)
	}
	if err := w.Flush(); err != nil || buf.Len() != 0 {
		t.Fatalf("refused record left %d bytes behind (flush: %v)", buf.Len(), err)
	}
	rec.APN.NetworkID = rec.APN.NetworkID[:maxWireAPN]
	if err := w.Write(&rec); err != nil {
		t.Fatalf("Write of a %d-byte APN: %v", maxWireAPN, err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// The longest record a Writer emits passes the reader's length
	// check (what then rejects this one is apn.Parse: TS 23.003 caps an
	// APN at 100 octets); one byte more is out of range.
	wire := buf.Bytes()
	var got Record
	if _, _, err := NewDecoder(wire).ReadFrame(&got, nil); err == nil || errors.Is(err, ErrOversize) || errors.Is(err, ErrTruncated) {
		t.Fatalf("reading the %d-byte APN back = %v, want the apn.Parse rejection", maxWireAPN, err)
	}
	longer := append(append([]byte(nil), wire...), 'a')
	longer[headerSize+1]++ // length prefix: bodySize+128 → bodySize+129, no carry
	for name, rd := range bothDecoders(longer) {
		if err := rd.Read(&got); !errors.Is(err, ErrOversize) {
			t.Errorf("%s: record of bodySize+%d bytes = %v, want ErrOversize", name, maxWireAPN+1, err)
		}
	}
	// And the longest APN that is valid end to end round-trips.
	rec.APN = apn.MustParse(strings.Repeat("a", 50) + "." + strings.Repeat("b", 49))
	buf.Reset()
	if err := WriteAll(&buf, []Record{rec}); err != nil {
		t.Fatal(err)
	}
	back, err := readAll(&buf)
	if err != nil || len(back) != 1 || back[0].APN != rec.APN {
		t.Fatalf("100-octet APN round trip: %v, %+v", err, back)
	}
}

// The APN tables stop growing at their bound and the codec keeps
// working past it, parsing and rendering the overflow each time.
func TestAPNTablesBounded(t *testing.T) {
	recs := make([]Record, apnTableMax+50)
	for i := range recs {
		recs[i] = sampleData(i)
		recs[i].APN = apn.MustParse(fmt.Sprintf("fleet%d.example", i))
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := range recs {
		if err := w.Write(&recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	d := NewDecoder(buf.Bytes())
	for i := range recs {
		var got Record
		if _, _, err := d.ReadFrame(&got, nil); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if got.APN != recs[i].APN {
			t.Fatalf("record %d: APN %v, wrote %v", i, got.APN, recs[i].APN)
		}
	}
	if len(w.apns) != apnTableMax || len(d.apns) != apnTableMax {
		t.Fatalf("tables hold %d (writer) and %d (decoder) APNs, want the bound %d", len(w.apns), len(d.apns), apnTableMax)
	}
}

// wireClasses are the errors a caller can tell apart with errors.Is.
var wireClasses = []error{io.EOF, io.ErrUnexpectedEOF, ErrBadMagic, ErrBadVersion, ErrTruncated, ErrOversize}

// FuzzRecordStream feeds arbitrary bytes to the stream Reader's Read
// and the byte-slice Decoder's ReadFrame: both must yield the same
// records and stop at the same record with the same error, never
// panic, and never grow the APN tables past their bound. The returned
// frames must be exactly the bytes consumed after the header, in
// order; their peeks must agree with the decoded records; and each
// frame must be canonical exactly when the Writer re-encodes its
// record to the same bytes, in which case WriteFrame(frame) and
// Write(&rec) emit the same stream. It also cuts the input in two
// streams: one Decoder moved across them with Reset must decode each
// exactly as a fresh Decoder does — records, error classes and the
// per-stream record index in the error. And a third Decoder reads the
// stream under a frame predicate drawn from the input: it must return
// the same frames and stop at the same record with the same error,
// offer keep each validated frame exactly once and no other, decode a
// kept frame to the unfiltered record and leave rec untouched for a
// dropped one.
func FuzzRecordStream(f *testing.F) {
	withOI, withoutOI := sampleData(1), sampleData(2)
	withoutOI.APN = apn.MustParse("payandgo.o2.co.uk")
	mixedCase := sampleData(3)
	mixedCase.APN = apn.APN{NetworkID: "Smart.METER"}
	var seed bytes.Buffer
	if err := WriteAll(&seed, []Record{sampleVoice(0), withOI, withoutOI, mixedCase}); err != nil {
		f.Fatal(err)
	}
	f.Add(seed.Bytes())
	f.Add(seed.Bytes()[:seed.Len()-3])
	f.Add([]byte(magic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		rd, dec, filt := NewReader(bytes.NewReader(data)), NewDecoder(data), NewDecoder(data)
		sel, offered := byte(0), 0
		if len(data) > 0 {
			sel = data[len(data)/2]
		}
		pick := func(frame []byte) bool { return (frame[len(frame)-1]^sel)&1 == 0 }
		keep := func(frame []byte) bool { offered++; return pick(frame) }
		var frames, viaFrame, viaWrite bytes.Buffer
		wFrame, wRec := NewWriter(&viaFrame), NewWriter(&viaWrite)
		clean := false
		for i := 0; ; i++ {
			var a, b Record
			errA := rd.Read(&a)
			frame, _, errB := dec.ReadFrame(&b, nil)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("record %d: Reader error %v, ReadFrame error %v", i, errA, errB)
			}
			c, before := Record{Device: 0xdead}, offered
			frameC, kept, errC := filt.ReadFrame(&c, keep)
			if (errB == nil) != (errC == nil) || (errB != nil && errB.Error() != errC.Error()) {
				t.Fatalf("record %d: ReadFrame error %v, filtered ReadFrame error %v", i, errB, errC)
			}
			if errB == nil && (!bytes.Equal(frameC, frame) || offered != before+1 || kept != pick(frame)) {
				t.Fatalf("record %d: filtered frame %x (kept %v, offered %d times), unfiltered %x", i, frameC, kept, offered-before, frame)
			}
			if errB != nil && offered != before {
				t.Fatalf("record %d: a frame failing with %v was offered to keep", i, errB)
			}
			if errB == nil && (kept && c != b || !kept && c != (Record{Device: 0xdead})) {
				t.Fatalf("record %d: filtered read (kept %v) left %+v, unfiltered %+v", i, kept, c, b)
			}
			if errA != nil {
				for _, class := range wireClasses {
					if errors.Is(errA, class) != errors.Is(errB, class) || errors.Is(errB, class) != errors.Is(errC, class) {
						t.Fatalf("record %d: Reader error %v, ReadFrame error %v and filtered error %v differ on %v", i, errA, errB, errC, class)
					}
				}
				if errA.Error() != errB.Error() {
					t.Fatalf("record %d: Reader error %q, ReadFrame error %q", i, errA, errB)
				}
				clean = errA == io.EOF
				break
			}
			if a != b {
				t.Fatalf("record %d: Reader %+v, ReadFrame %+v", i, a, b)
			}
			frames.Write(frame)
			if FrameTime(frame) != b.Time.UnixNano() || FrameDevice(frame) != uint64(b.Device) || FrameVisited(frame) != b.Visited {
				t.Fatalf("record %d: frame peeks (%d, %x, %v) disagree with %+v",
					i, FrameTime(frame), FrameDevice(frame), FrameVisited(frame), b)
			}
			encoded, encErr := AppendFrame(nil, &b)
			if canon := dec.Canonical(frame, &b); canon != (encErr == nil && bytes.Equal(frame, encoded)) {
				t.Fatalf("record %d: Canonical = %v for frame %x, which re-encodes to %x (%v)", i, canon, frame, encoded, encErr)
			} else if canon {
				if err := wFrame.WriteFrame(frame); err != nil {
					t.Fatal(err)
				}
				if err := wRec.Write(&b); err != nil {
					t.Fatal(err)
				}
			}
		}
		if len(dec.apns) > apnTableMax || len(rd.apns) > apnTableMax || len(dec.canon) > apnTableMax {
			t.Fatalf("APN tables grew to %d, %d and %d, bound %d", len(dec.apns), len(rd.apns), len(dec.canon), apnTableMax)
		}
		if frames.Len() > 0 && !bytes.HasPrefix(data[headerSize:], frames.Bytes()) {
			t.Fatalf("frames %x are not the bytes after the header of %x", frames.Bytes(), data)
		}
		if clean && len(data) > 0 && headerSize+frames.Len() != len(data) {
			t.Fatalf("clean end after %d frame bytes of a %d-byte stream", frames.Len(), len(data))
		}
		if err := wFrame.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := wRec.Flush(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(viaFrame.Bytes(), viaWrite.Bytes()) {
			t.Fatalf("canonical frames written verbatim %x, re-encoded %x", viaFrame.Bytes(), viaWrite.Bytes())
		}

		cut := 0
		if len(data) > 0 {
			cut = int(data[0]) % (len(data) + 1)
		}
		reused := NewDecoder(nil)
		for s, stream := range [][]byte{data[:cut], data[cut:]} {
			fresh := NewDecoder(stream)
			reused.Reset(stream)
			for i := 0; ; i++ {
				var a, b Record
				_, _, errA := reused.ReadFrame(&a, nil)
				_, _, errB := fresh.ReadFrame(&b, nil)
				if (errA == nil) != (errB == nil) || (errA != nil && errA.Error() != errB.Error()) {
					t.Fatalf("stream %d record %d: reset Decoder error %v, fresh Decoder error %v", s, i, errA, errB)
				}
				if errA != nil {
					for _, class := range wireClasses {
						if errors.Is(errA, class) != errors.Is(errB, class) {
							t.Fatalf("stream %d record %d: reset error %v and fresh error %v differ on %v", s, i, errA, errB, class)
						}
					}
					break
				}
				if a != b {
					t.Fatalf("stream %d record %d: reset Decoder %+v, fresh Decoder %+v", s, i, a, b)
				}
			}
		}
	})
}

func BenchmarkWriteData(b *testing.B) {
	rec := sampleData(0)
	w := NewWriter(io.Discard)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := w.Write(&rec); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadStream(b *testing.B) {
	var buf bytes.Buffer
	recs := make([]Record, 5000)
	for i := range recs {
		if i%2 == 0 {
			recs[i] = sampleVoice(i)
		} else {
			recs[i] = sampleData(i)
		}
	}
	if err := WriteAll(&buf, recs); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rd := NewReader(bytes.NewReader(data))
		var rec Record
		for {
			if err := rd.Read(&rec); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
	}
}
