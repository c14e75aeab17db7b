package cdrs

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"time"

	"whereroam/internal/apn"
	"whereroam/internal/identity"
	"whereroam/internal/mccmnc"
	"whereroam/internal/radio"
)

// Binary wire format: a 6-byte header ("WRDR", version, 0) followed by
// length-prefixed records — a fixed 40-byte body plus the APN string.
// Records are variable length because APNs are; the per-record length
// prefix lets a reader resynchronize after a corrupt record by
// skipping it.
const (
	magic       = "WRDR"
	wireVersion = 1
	headerSize  = 6
	bodySize    = 40
	// maxWireAPN bounds the APN bytes of one record: the length a
	// reader accepts and therefore the longest a writer may emit.
	maxWireAPN = 128
)

// apnTableMax bounds the per-codec APN tables. A capture names a few
// hundred distinct APNs at most (they label whole device populations),
// so the bound exists for hostile input: once a table is full, further
// distinct strings are parsed or rendered each time, as if there were
// no table.
const apnTableMax = 1024

// Wire errors.
var (
	ErrBadMagic   = errors.New("cdrs: bad stream magic")
	ErrBadVersion = errors.New("cdrs: unsupported wire version")
	ErrTruncated  = errors.New("cdrs: truncated record")
	ErrOversize   = errors.New("cdrs: record length out of range")
)

// Writer streams records in the binary wire format.
type Writer struct {
	w      *bufio.Writer
	buf    [2 + bodySize + maxWireAPN]byte
	wrote  int
	header bool
	// apns holds the rendered form of the APNs written so far (at most
	// apnTableMax of them), so rendering costs one fmt.Sprintf per
	// distinct APN instead of one per data record.
	apns map[apn.APN]string
}

// NewWriter returns a Writer targeting w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 64<<10), apns: map[apn.APN]string{}}
}

// Write appends one record. A data record whose rendered APN is longer
// than a reader accepts is refused with ErrOversize before anything is
// written; whether the APN is well formed is checked on read, by
// apn.Parse.
func (w *Writer) Write(r *Record) error {
	apnStr := ""
	if r.Kind == KindData {
		var ok bool
		if apnStr, ok = w.apns[r.APN]; !ok {
			apnStr = r.APN.String()
			if len(apnStr) > maxWireAPN {
				return fmt.Errorf("%w: record %d: APN of %d bytes", ErrOversize, w.wrote, len(apnStr))
			}
			if len(w.apns) < apnTableMax {
				w.apns[r.APN] = apnStr
			}
		}
	}
	return w.WriteFrame(appendFrame(w.buf[:0], r, apnStr))
}

// WriteFrame appends one frame — a length prefix and body as
// [Decoder.ReadFrame] returns it or [AppendFrame] builds it — verbatim,
// after the stream header if it is the first. The frame is not checked:
// a caller copying frames between streams has already decoded them.
func (w *Writer) WriteFrame(frame []byte) error {
	if !w.header {
		var h [headerSize]byte
		copy(h[:], magic)
		h[4] = wireVersion
		if _, err := w.w.Write(h[:]); err != nil {
			return fmt.Errorf("cdrs: writing header: %w", err)
		}
		w.header = true
	}
	if _, err := w.w.Write(frame); err != nil {
		return fmt.Errorf("cdrs: writing record %d: %w", w.wrote, err)
	}
	w.wrote++
	return nil
}

// AppendFrame appends to dst the frame [Writer.Write] emits for r —
// length prefix and body, no stream header — and refuses, like Write,
// a data record whose rendered APN no reader accepts.
func AppendFrame(dst []byte, r *Record) ([]byte, error) {
	apnStr := ""
	if r.Kind == KindData {
		apnStr = r.APN.String()
		if len(apnStr) > maxWireAPN {
			return dst, fmt.Errorf("%w: APN of %d bytes", ErrOversize, len(apnStr))
		}
	}
	return appendFrame(dst, r, apnStr), nil
}

// appendFrame is the one frame encoder: r's fixed fields and apnStr as
// its APN bytes, appended to dst.
func appendFrame(dst []byte, r *Record, apnStr string) []byte {
	n := len(dst)
	dst = slices.Grow(dst, 2+bodySize+len(apnStr))[:n+2+bodySize+len(apnStr)]
	b := dst[n:]
	binary.BigEndian.PutUint16(b[0:2], uint16(bodySize+len(apnStr)))
	binary.BigEndian.PutUint64(b[2:10], uint64(r.Device))
	binary.BigEndian.PutUint64(b[10:18], uint64(r.Time.UnixNano()))
	binary.BigEndian.PutUint16(b[18:20], r.SIM.MCC)
	binary.BigEndian.PutUint16(b[20:22], r.SIM.MNC)
	b[22] = r.SIM.MNCLen
	binary.BigEndian.PutUint16(b[23:25], r.Visited.MCC)
	binary.BigEndian.PutUint16(b[25:27], r.Visited.MNC)
	b[27] = r.Visited.MNCLen
	b[28] = byte(r.Kind)
	b[29] = byte(r.RAT)
	binary.BigEndian.PutUint32(b[30:34], uint32(r.Duration/time.Millisecond))
	binary.BigEndian.PutUint64(b[34:42], r.Bytes)
	copy(b[42:], apnStr)
	return dst
}

// FrameTime peeks a frame's event time in Unix nanoseconds.
func FrameTime(frame []byte) int64 { return int64(binary.BigEndian.Uint64(frame[10:18])) }

// FrameDevice peeks a frame's device hash.
func FrameDevice(frame []byte) uint64 { return binary.BigEndian.Uint64(frame[2:10]) }

// FrameVisited peeks a frame's visited network.
func FrameVisited(frame []byte) mccmnc.PLMN {
	return mccmnc.PLMN{MCC: binary.BigEndian.Uint16(frame[23:25]), MNC: binary.BigEndian.Uint16(frame[25:27]), MNCLen: frame[27]}
}

// Flush drains buffered records.
func (w *Writer) Flush() error { return w.w.Flush() }

// apnTable resolves the APN bytes of data records to parsed APNs,
// remembering up to apnTableMax distinct byte strings. It is keyed by
// the raw wire bytes, so a hit costs one map lookup and no allocation;
// a miss goes through apn.Parse, which is why a stream is accepted or
// rejected exactly as it would be without the table.
type apnTable map[string]apn.APN

func (t apnTable) resolve(b []byte) (apn.APN, error) {
	if a, ok := t[string(b)]; ok {
		return a, nil
	}
	raw := string(b)
	a, err := apn.Parse(raw)
	if err == nil && len(t) < apnTableMax {
		t[raw] = a
	}
	return a, err
}

// bodyAPN validates the APN of one record body — the bytes after the
// length prefix, bodySize fixed bytes plus the APN — and returns it
// parsed (the zero APN when the body carries none). index is the
// record's position in the stream, for the error. It is the one record
// check: the stream [Reader] and the byte-slice [Decoder] both call it
// before anything else reads the body, so they accept and reject the
// same records.
func (t apnTable) bodyAPN(b []byte, index int) (apn.APN, error) {
	if len(b) == bodySize {
		return apn.APN{}, nil
	}
	a, err := t.resolve(b[bodySize:])
	if err != nil {
		return a, fmt.Errorf("cdrs: record %d: %w", index, err)
	}
	return a, nil
}

// checkHeader validates a stream header.
func checkHeader(h []byte) error {
	if string(h[:4]) != magic {
		return ErrBadMagic
	}
	if h[4] != wireVersion {
		return fmt.Errorf("%w: %d", ErrBadVersion, h[4])
	}
	return nil
}

// FrameLen validates a frame's 2-byte length prefix and returns the
// length of the body that follows it.
func FrameLen(prefix []byte) (int, error) {
	n := int(binary.BigEndian.Uint16(prefix))
	if n < bodySize || n > bodySize+maxWireAPN {
		return 0, fmt.Errorf("%w: %d", ErrOversize, n)
	}
	return n, nil
}

// decodeFixed decodes one validated record body's fixed fields into
// rec, with a (bodyAPN's result) as its APN. It is the one field
// decoder: the stream [Reader] and the byte-slice [Decoder] both call
// it, so they cannot disagree about a record.
func decodeFixed(b []byte, rec *Record, a apn.APN) {
	rec.Device = identity.DeviceID(binary.BigEndian.Uint64(b[0:8]))
	rec.Time = time.Unix(0, int64(binary.BigEndian.Uint64(b[8:16]))).UTC()
	rec.SIM = mccmnc.PLMN{MCC: binary.BigEndian.Uint16(b[16:18]), MNC: binary.BigEndian.Uint16(b[18:20]), MNCLen: b[20]}
	rec.Visited = mccmnc.PLMN{MCC: binary.BigEndian.Uint16(b[21:23]), MNC: binary.BigEndian.Uint16(b[23:25]), MNCLen: b[25]}
	rec.Kind = Kind(b[26])
	rec.RAT = radio.RAT(b[27])
	rec.Duration = time.Duration(binary.BigEndian.Uint32(b[28:32])) * time.Millisecond
	rec.Bytes = binary.BigEndian.Uint64(b[32:40])
	rec.APN = a
}

// Reader streams records from the binary wire format into
// caller-owned memory.
type Reader struct {
	r      *bufio.Reader
	buf    [bodySize + maxWireAPN]byte
	lenBuf [2]byte
	read   int
	header bool
	apns   apnTable
}

// NewReader returns a Reader consuming from r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, 64<<10), apns: apnTable{}}
}

// Read decodes the next record into rec; io.EOF marks a clean end.
func (rd *Reader) Read(rec *Record) error {
	if !rd.header {
		var h [headerSize]byte
		if _, err := io.ReadFull(rd.r, h[:]); err != nil {
			if err == io.EOF {
				return io.EOF
			}
			return fmt.Errorf("cdrs: reading header: %w", err)
		}
		if err := checkHeader(h[:]); err != nil {
			return err
		}
		rd.header = true
	}
	if _, err := io.ReadFull(rd.r, rd.lenBuf[:]); err != nil {
		if err == io.EOF {
			return io.EOF
		}
		return ErrTruncated
	}
	n, err := FrameLen(rd.lenBuf[:])
	if err != nil {
		return err
	}
	b := rd.buf[:n]
	if _, err := io.ReadFull(rd.r, b); err != nil {
		return ErrTruncated
	}
	a, err := rd.apns.bodyAPN(b, rd.read)
	if err != nil {
		return err
	}
	decodeFixed(b, rec, a)
	rd.read++
	return nil
}

// Decoder reads records from a stream already held in memory — the
// same format, checks and errors as [Reader], without the copy
// through a buffered reader — and can filter them on the raw frame, so
// that only the records a caller keeps are decoded. Decoded records do
// not alias the stream (their strings are copies), so its buffer can
// be reused as soon as the Decoder is done with; the frames
// [Decoder.ReadFrame] returns do alias it.
type Decoder struct {
	b      []byte
	read   int
	header bool
	apns   apnTable
	// canon memoises Canonical per distinct APN wire string, allocated
	// on first use and bounded like apns.
	canon map[string]bool
}

// NewDecoder returns a Decoder over the whole stream b (header
// included).
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b, apns: apnTable{}} }

// Reset points the Decoder at a new stream b (header included), as
// NewDecoder(b) would, but keeps its APN table: a caller decoding many
// streams of one capture parses each distinct APN once, not once per
// stream. Record indexes in errors count from the start of b.
func (d *Decoder) Reset(b []byte) { d.b, d.read, d.header = b, 0, false }

// ReadFrame reads the next record and returns its frame: the length
// prefix and body, aliasing the stream. io.EOF marks a clean end.
// Every frame is checked in one order — its length, then its APN
// through apn.Parse — and only a frame that passed is offered to keep;
// a nil keep keeps every frame. A kept frame's fields are decoded into
// rec and kept is true; a dropped frame leaves rec as it was, so a
// caller that filters on the frame's fixed fields ([FrameTime],
// [FrameDevice], [FrameVisited]) pays for decoding only what it keeps.
// Whatever keep says, the stream is accepted or rejected, with the same
// error at the same record, as with no filter.
func (d *Decoder) ReadFrame(rec *Record, keep func(frame []byte) bool) (frame []byte, kept bool, err error) {
	if !d.header {
		if len(d.b) == 0 {
			return nil, false, io.EOF
		}
		if len(d.b) < headerSize {
			d.b = nil
			return nil, false, fmt.Errorf("cdrs: reading header: %w", io.ErrUnexpectedEOF)
		}
		h := d.b[:headerSize]
		d.b = d.b[headerSize:]
		if err := checkHeader(h); err != nil {
			return nil, false, err
		}
		d.header = true
	}
	if len(d.b) == 0 {
		return nil, false, io.EOF
	}
	if len(d.b) < 2 {
		d.b = nil
		return nil, false, ErrTruncated
	}
	n, err := FrameLen(d.b[:2])
	if err != nil {
		d.b = d.b[2:]
		return nil, false, err
	}
	if len(d.b) < 2+n {
		d.b = nil
		return nil, false, ErrTruncated
	}
	frame = d.b[:2+n]
	d.b = d.b[2+n:]
	a, err := d.apns.bodyAPN(frame[2:], d.read)
	if err != nil {
		return nil, false, err
	}
	d.read++
	if keep != nil && !keep(frame) {
		return frame, false, nil
	}
	decodeFixed(frame[2:], rec, a)
	return frame, true, nil
}

// Canonical reports whether frame — returned and kept by ReadFrame
// together with rec — is byte for byte what [Writer.Write] emits for
// rec, so that copying it verbatim equals decoding and re-encoding it.
// Every fixed field round-trips exactly, so the APN bytes decide: a
// non-data frame must carry none, and a data frame's must be
// rec.APN.String(). They need not be: apn.Parse lowercases and trims,
// so an APN a writer was handed as {NetworkID: "Smart.METER"} is on
// the wire as is and decodes to "smart.meter". The answer for each
// distinct APN string is memoised.
func (d *Decoder) Canonical(frame []byte, rec *Record) bool {
	apnBytes := frame[2+bodySize:]
	if rec.Kind != KindData {
		return len(apnBytes) == 0
	}
	c, ok := d.canon[string(apnBytes)]
	if !ok {
		c = rec.APN.String() == string(apnBytes)
		if d.canon == nil {
			d.canon = map[string]bool{}
		}
		if len(d.canon) < apnTableMax {
			d.canon[string(apnBytes)] = c
		}
	}
	return c
}

// WriteAll encodes all records to w and flushes.
func WriteAll(w io.Writer, recs []Record) error {
	wr := NewWriter(w)
	for i := range recs {
		if err := wr.Write(&recs[i]); err != nil {
			return err
		}
	}
	return wr.Flush()
}
