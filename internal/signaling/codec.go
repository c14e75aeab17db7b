package signaling

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"whereroam/internal/identity"
	"whereroam/internal/mccmnc"
	"whereroam/internal/radio"
)

// Binary wire format
//
// A stream is a 6-byte header ("WRTX" magic, version, record size)
// followed by fixed 32-byte records. Fixed width keeps encoding and
// decoding allocation-free and lets readers seek by record index.
//
//	offset  size  field
//	0       8     device ID (big endian)
//	8       8     time, Unix nanoseconds (big endian, two's complement)
//	16      2     SIM MCC
//	18      2     SIM MNC
//	20      1     SIM MNC length
//	21      2     visited MCC
//	23      2     visited MNC
//	25      1     visited MNC length
//	26      1     procedure
//	27      1     result
//	28      1     RAT
//	29      1     reserved (0)
//	30      2     additive checksum of bytes [0,30)
const (
	recordSize  = 32
	magic       = "WRTX"
	wireVersion = 1
	headerSize  = len(magic) + 2
)

// Wire errors.
var (
	ErrBadMagic    = errors.New("signaling: bad stream magic")
	ErrBadVersion  = errors.New("signaling: unsupported wire version")
	ErrBadChecksum = errors.New("signaling: record checksum mismatch")
	ErrTruncated   = errors.New("signaling: truncated record")
)

// MarshalInto encodes the transaction into buf, which must be at
// least 32 bytes, and returns the number of bytes written. It never
// allocates.
func (tx *Transaction) MarshalInto(buf []byte) int {
	_ = buf[recordSize-1]
	binary.BigEndian.PutUint64(buf[0:8], uint64(tx.Device))
	binary.BigEndian.PutUint64(buf[8:16], uint64(tx.Time.UnixNano()))
	binary.BigEndian.PutUint16(buf[16:18], tx.SIM.MCC)
	binary.BigEndian.PutUint16(buf[18:20], tx.SIM.MNC)
	buf[20] = tx.SIM.MNCLen
	binary.BigEndian.PutUint16(buf[21:23], tx.Visited.MCC)
	binary.BigEndian.PutUint16(buf[23:25], tx.Visited.MNC)
	buf[25] = tx.Visited.MNCLen
	buf[26] = byte(tx.Procedure)
	buf[27] = byte(tx.Result)
	buf[28] = byte(tx.RAT)
	buf[29] = 0
	binary.BigEndian.PutUint16(buf[30:32], checksum(buf[:30]))
	return recordSize
}

// UnmarshalFrom decodes a record from buf into the receiver without
// allocating. It verifies the checksum.
func (tx *Transaction) UnmarshalFrom(buf []byte) error {
	if len(buf) < recordSize {
		return ErrTruncated
	}
	if binary.BigEndian.Uint16(buf[30:32]) != checksum(buf[:30]) {
		return ErrBadChecksum
	}
	tx.Device = identity.DeviceID(binary.BigEndian.Uint64(buf[0:8]))
	tx.Time = time.Unix(0, int64(binary.BigEndian.Uint64(buf[8:16]))).UTC()
	tx.SIM = mccmnc.PLMN{
		MCC:    binary.BigEndian.Uint16(buf[16:18]),
		MNC:    binary.BigEndian.Uint16(buf[18:20]),
		MNCLen: buf[20],
	}
	tx.Visited = mccmnc.PLMN{
		MCC:    binary.BigEndian.Uint16(buf[21:23]),
		MNC:    binary.BigEndian.Uint16(buf[23:25]),
		MNCLen: buf[25],
	}
	tx.Procedure = Procedure(buf[26])
	tx.Result = Result(buf[27])
	tx.RAT = radio.RAT(buf[28])
	return nil
}

func checksum(b []byte) uint16 {
	var s uint16
	for _, c := range b {
		s += uint16(c)
	}
	return s
}

// Writer streams transactions in the binary wire format.
type Writer struct {
	w      *bufio.Writer
	buf    [recordSize]byte
	wrote  int
	header bool
}

// NewWriter returns a Writer targeting w. The stream header is
// emitted lazily before the first record.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: bufio.NewWriterSize(w, 64<<10)}
}

// Write appends one transaction to the stream.
func (w *Writer) Write(tx *Transaction) error {
	if !w.header {
		var h [headerSize]byte
		copy(h[:], magic)
		h[4] = wireVersion
		h[5] = recordSize
		if _, err := w.w.Write(h[:]); err != nil {
			return fmt.Errorf("signaling: writing header: %w", err)
		}
		w.header = true
	}
	tx.MarshalInto(w.buf[:])
	if _, err := w.w.Write(w.buf[:]); err != nil {
		return fmt.Errorf("signaling: writing record %d: %w", w.wrote, err)
	}
	w.wrote++
	return nil
}

// Flush drains buffered records to the underlying writer. Callers
// must Flush before closing the destination.
func (w *Writer) Flush() error { return w.w.Flush() }

// Reader streams transactions from the binary wire format, decoding
// into caller-owned memory (the DecodingLayerParser idiom: the hot
// loop performs no allocation).
//
//roamvet:deadcode-ok test oracle: the only reader of the stream m2msim -out writes, and the round-trip reference for Writer
type Reader struct {
	r      *bufio.Reader
	buf    [recordSize]byte
	read   int
	header bool
}

// NewReader returns a Reader consuming from r.
//
//roamvet:deadcode-ok test oracle: constructs the round-trip Reader
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReaderSize(r, 64<<10)}
}

// Read decodes the next record into tx. It returns io.EOF at a clean
// end of stream and ErrTruncated for a partial trailing record.
//
//roamvet:deadcode-ok test oracle: decodes what Writer.Write encoded, header, checksum and truncation checks included
func (r *Reader) Read(tx *Transaction) error {
	if !r.header {
		var h [headerSize]byte
		if _, err := io.ReadFull(r.r, h[:]); err != nil {
			if err == io.EOF {
				return io.EOF
			}
			return fmt.Errorf("signaling: reading header: %w", err)
		}
		if string(h[:4]) != magic {
			return ErrBadMagic
		}
		if h[4] != wireVersion {
			return fmt.Errorf("%w: %d", ErrBadVersion, h[4])
		}
		if h[5] != recordSize {
			return fmt.Errorf("signaling: record size %d, want %d", h[5], recordSize)
		}
		r.header = true
	}
	if _, err := io.ReadFull(r.r, r.buf[:]); err != nil {
		if err == io.EOF {
			return io.EOF
		}
		if err == io.ErrUnexpectedEOF {
			return ErrTruncated
		}
		return fmt.Errorf("signaling: reading record %d: %w", r.read, err)
	}
	if err := tx.UnmarshalFrom(r.buf[:]); err != nil {
		return fmt.Errorf("record %d: %w", r.read, err)
	}
	r.read++
	return nil
}

// WriteAll encodes all transactions to w and flushes.
func WriteAll(w io.Writer, txs []Transaction) error {
	wr := NewWriter(w)
	for i := range txs {
		if err := wr.Write(&txs[i]); err != nil {
			return err
		}
	}
	return wr.Flush()
}
