package signaling

import (
	"bytes"
	"encoding/csv"
	"io"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"whereroam/internal/identity"
	"whereroam/internal/mccmnc"
	"whereroam/internal/radio"
)

func sampleTx(i int) Transaction {
	return Transaction{
		Device:    identity.DeviceID(0x1000 + i),
		Time:      time.Date(2018, 11, 19, 0, 0, i, 0, time.UTC),
		SIM:       mccmnc.MustParse("21407"),
		Visited:   mccmnc.MustParse("50501"),
		Procedure: ProcUpdateLocation,
		Result:    ResultOK,
		RAT:       radio.RAT4G,
	}
}

func TestProcedureStrings(t *testing.T) {
	seen := map[string]Procedure{}
	for p := ProcUnknown; p <= ProcRoutingAreaUpdate; p++ {
		s := p.String()
		if prev, dup := seen[s]; dup || s == "" || strings.HasPrefix(s, "proc(") {
			t.Errorf("procedure %d: name %q (also %d)", p, s, prev)
		}
		seen[s] = p
	}
	if got := (ProcRoutingAreaUpdate + 1).String(); !strings.HasPrefix(got, "proc(") {
		t.Errorf("out-of-range procedure renders %q", got)
	}
}

func TestResultStrings(t *testing.T) {
	seen := map[string]Result{}
	for r := ResultOK; r <= ResultCongestion; r++ {
		s := r.String()
		if prev, dup := seen[s]; dup || s == "" {
			t.Errorf("result %d: name %q (also %d)", r, s, prev)
		}
		seen[s] = r
	}
	if !ResultOK.OK() || ResultRoamingNotAllowed.OK() {
		t.Error("OK() wrong")
	}
}

func TestRoaming(t *testing.T) {
	tx := sampleTx(0)
	if !tx.Roaming() {
		t.Error("ES SIM on AU network should be roaming")
	}
	tx.Visited = mccmnc.MustParse("21401") // another ES operator
	if tx.Roaming() {
		t.Error("ES SIM on ES network is not (international) roaming")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	txs := make([]Transaction, 100)
	for i := range txs {
		txs[i] = sampleTx(i)
		txs[i].Procedure = Procedure(1 + i%6)
		txs[i].Result = Result(i % 6)
		txs[i].RAT = radio.RAT(1 + i%3)
	}
	if err := WriteAll(&buf, txs); err != nil {
		t.Fatal(err)
	}
	wantLen := headerSize + len(txs)*recordSize
	if buf.Len() != wantLen {
		t.Fatalf("stream length = %d, want %d", buf.Len(), wantLen)
	}
	got, err := readAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(txs) {
		t.Fatalf("read %d records, wrote %d", len(got), len(txs))
	}
	for i := range txs {
		if !got[i].Time.Equal(txs[i].Time) {
			t.Fatalf("record %d time: %v != %v", i, got[i].Time, txs[i].Time)
		}
		got[i].Time = txs[i].Time // normalize monotonic clock / location
		if got[i] != txs[i] {
			t.Fatalf("record %d: %+v != %+v", i, got[i], txs[i])
		}
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(dev uint64, nanos int64, proc, res, rat uint8) bool {
		tx := Transaction{
			Device:    identity.DeviceID(dev),
			Time:      time.Unix(0, nanos%(1<<60)).UTC(),
			SIM:       mccmnc.MustParse("20404"),
			Visited:   mccmnc.MustParse("23410"),
			Procedure: Procedure(proc % 7),
			Result:    Result(res % 6),
			RAT:       radio.RAT(rat % 4),
		}
		var buf [recordSize]byte
		tx.MarshalInto(buf[:])
		var got Transaction
		if err := got.UnmarshalFrom(buf[:]); err != nil {
			return false
		}
		return got.Device == tx.Device && got.Time.Equal(tx.Time) &&
			got.SIM == tx.SIM && got.Visited == tx.Visited &&
			got.Procedure == tx.Procedure && got.Result == tx.Result && got.RAT == tx.RAT
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryDetectsCorruption(t *testing.T) {
	tx := sampleTx(1)
	var buf [recordSize]byte
	tx.MarshalInto(buf[:])
	for i := 0; i < recordSize; i++ {
		c := buf
		c[i] ^= 0xff
		var got Transaction
		if err := got.UnmarshalFrom(c[:]); err == nil {
			// Flipping the checksum bytes themselves must also fail.
			t.Fatalf("corruption at byte %d not detected", i)
		}
	}
}

func TestBinaryTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteAll(&buf, []Transaction{sampleTx(0), sampleTx(1)}); err != nil {
		t.Fatal(err)
	}
	// Chop mid-record.
	cut := buf.Bytes()[:buf.Len()-10]
	_, err := readAll(bytes.NewReader(cut))
	if err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("truncation error = %v", err)
	}
}

func TestBinaryBadMagicAndVersion(t *testing.T) {
	var tx Transaction
	r := NewReader(strings.NewReader("NOPE\x01\x20"))
	if err := r.Read(&tx); err != ErrBadMagic {
		t.Errorf("bad magic error = %v", err)
	}
	r = NewReader(strings.NewReader(magic + "\x07\x20"))
	if err := r.Read(&tx); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("bad version error = %v", err)
	}
}

func TestEmptyStream(t *testing.T) {
	got, err := readAll(strings.NewReader(""))
	if err != nil || len(got) != 0 {
		t.Fatalf("empty stream: %v, %d records", err, len(got))
	}
}

func TestReaderCounts(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := 0; i < 5; i++ {
		tx := sampleTx(i)
		if err := w.Write(&tx); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if want := headerSize + 5*recordSize; buf.Len() != want {
		t.Errorf("stream length = %d, want %d", buf.Len(), want)
	}
	got, err := readAll(&buf)
	if err != nil || len(got) != 5 {
		t.Errorf("read %d records (%v), wrote 5", len(got), err)
	}
}

// readAll decodes an entire stream through the stream Reader.
func readAll(r io.Reader) ([]Transaction, error) {
	rd := NewReader(r)
	var out []Transaction
	for {
		var tx Transaction
		err := rd.Read(&tx)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, tx)
	}
}

func TestCSVRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewCSVWriter(&buf)
	txs := make([]Transaction, 50)
	for i := range txs {
		txs[i] = sampleTx(i)
		txs[i].Procedure = Procedure(1 + i%6)
		txs[i].Result = Result(i % 6)
	}
	for i := range txs {
		if err := w.Write(&txs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// Read the text form back field by field: the header of §3.1, then
	// one row per transaction whose columns parse to what was written.
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(txs)+1 || strings.Join(rows[0], ",") != "time,device,sim,visited,rat,procedure,result" {
		t.Fatalf("%d rows, header %v", len(rows), rows[0])
	}
	for i, tx := range txs {
		row := rows[i+1]
		ts, err := time.Parse(time.RFC3339Nano, row[0])
		if err != nil || !ts.Equal(tx.Time) {
			t.Fatalf("row %d time %q (%v), want %v", i, row[0], err, tx.Time)
		}
		want := []string{tx.Device.String(), tx.SIM.Concat(), tx.Visited.Concat(),
			strconv.Itoa(int(tx.RAT)), tx.Procedure.String(), tx.Result.String()}
		if got := row[1:]; strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("row %d: %v, want %v", i, got, want)
		}
	}
}

func TestMarshalIntoNoAlloc(t *testing.T) {
	tx := sampleTx(0)
	var buf [recordSize]byte
	allocs := testing.AllocsPerRun(1000, func() {
		tx.MarshalInto(buf[:])
		var got Transaction
		if err := got.UnmarshalFrom(buf[:]); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Errorf("marshal+unmarshal allocates %.1f per op, want 0", allocs)
	}
}

func BenchmarkMarshal(b *testing.B) {
	tx := sampleTx(0)
	var buf [recordSize]byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tx.MarshalInto(buf[:])
	}
}

func BenchmarkUnmarshalPreallocated(b *testing.B) {
	tx := sampleTx(0)
	var buf [recordSize]byte
	tx.MarshalInto(buf[:])
	var got Transaction
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := got.UnmarshalFrom(buf[:]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStreamRead(b *testing.B) {
	var buf bytes.Buffer
	txs := make([]Transaction, 10000)
	for i := range txs {
		txs[i] = sampleTx(i)
	}
	if err := WriteAll(&buf, txs); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := NewReader(bytes.NewReader(data))
		var tx Transaction
		for {
			if err := r.Read(&tx); err == io.EOF {
				break
			} else if err != nil {
				b.Fatal(err)
			}
		}
	}
}
