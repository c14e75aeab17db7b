package identity

import (
	"hash/fnv"
	"strings"
	"testing"
	"testing/quick"

	"whereroam/internal/mccmnc"
)

func TestIMSIRoundTrip(t *testing.T) {
	cases := []IMSI{
		{PLMN: mccmnc.MustParse("21407"), MSIN: 123456789},
		{PLMN: mccmnc.MustParse("334020"), MSIN: 987654321},
		{PLMN: mccmnc.MustParse("20404"), MSIN: 1},
		{PLMN: mccmnc.MustParse("722310"), MSIN: 999999999},
	}
	for _, im := range cases {
		s := im.String()
		if len(s) != 15 {
			t.Fatalf("IMSI %v renders as %q (%d digits)", im, s, len(s))
		}
		got, err := ParseIMSI(s, int(im.PLMN.MNCLen))
		if err != nil {
			t.Fatalf("ParseIMSI(%q): %v", s, err)
		}
		if got != im {
			t.Errorf("round trip %v -> %q -> %v", im, s, got)
		}
	}
}

func TestIMSIRoundTripProperty(t *testing.T) {
	f := func(msin uint64, three bool) bool {
		plmn := mccmnc.MustParse("21407")
		digits := uint64(10_000_000_000)
		if three {
			plmn = mccmnc.MustParse("334020")
			digits = 1_000_000_000
		}
		im := IMSI{PLMN: plmn, MSIN: msin % digits}
		got, err := ParseIMSI(im.String(), int(plmn.MNCLen))
		return err == nil && got == im
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestParseIMSIErrors(t *testing.T) {
	cases := []struct {
		s      string
		mncLen int
	}{
		{"2140712345678", 2},    // too short
		{"21407123456789x", 2},  // non-digit
		{"214071234567890", 4},  // bad mncLen
		{"199071234567890", 2},  // invalid MCC
		{"2140712345678901", 2}, // too long
	}
	for _, c := range cases {
		if _, err := ParseIMSI(c.s, c.mncLen); err == nil {
			t.Errorf("ParseIMSI(%q,%d) succeeded, want error", c.s, c.mncLen)
		}
	}
}

func TestIMSIRange(t *testing.T) {
	plmn := mccmnc.MustParse("23410")
	r := IMSIRange{PLMN: plmn, Lo: 5_000_000_000, Hi: 5_099_999_999}
	in := IMSI{PLMN: plmn, MSIN: 5_050_000_000}
	below := IMSI{PLMN: plmn, MSIN: 4_999_999_999}
	wrongNet := IMSI{PLMN: mccmnc.MustParse("23415"), MSIN: 5_050_000_000}
	if !r.Contains(in) {
		t.Error("IMSI inside range not matched")
	}
	if r.Contains(below) || r.Contains(wrongNet) {
		t.Error("IMSI outside range matched")
	}
}

func TestIMEIRoundTrip(t *testing.T) {
	im := IMEI{TAC: 35332811, Serial: 123456}
	s := im.String()
	if len(s) != 15 {
		t.Fatalf("IMEI renders as %d digits", len(s))
	}
	got, err := ParseIMEI(s)
	if err != nil {
		t.Fatalf("ParseIMEI(%q): %v", s, err)
	}
	if got != im {
		t.Errorf("round trip %v -> %v", im, got)
	}
}

func TestIMEIRoundTripProperty(t *testing.T) {
	f := func(tac uint32, serial uint32) bool {
		im := IMEI{TAC: TAC(tac % 100_000_000), Serial: serial % 1_000_000}
		got, err := ParseIMEI(im.String())
		return err == nil && got == im
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIMEILuhnRejectsCorruption(t *testing.T) {
	s := IMEI{TAC: 35332811, Serial: 654321}.String()
	// Flipping any single digit must break the Luhn check.
	for i := 0; i < len(s); i++ {
		b := []byte(s)
		b[i] = '0' + (b[i]-'0'+1)%10
		if _, err := ParseIMEI(string(b)); err == nil {
			t.Errorf("corrupted IMEI %q accepted", string(b))
		}
	}
}

func TestLuhnKnownVectors(t *testing.T) {
	// 7992739871 has Luhn check digit 3 (classic example).
	if d := luhnDigit("7992739871"); d != 3 {
		t.Errorf("luhnDigit(7992739871) = %d, want 3", d)
	}
	if !LuhnOK("79927398713") {
		t.Error("79927398713 should validate")
	}
	if LuhnOK("79927398710") {
		t.Error("79927398710 should not validate")
	}
	if LuhnOK("7") || LuhnOK("ab") {
		t.Error("degenerate inputs should not validate")
	}
}

func TestTACParse(t *testing.T) {
	tac, err := ParseTAC("35332811")
	if err != nil || tac != 35332811 {
		t.Fatalf("ParseTAC: %v %v", tac, err)
	}
	if tac.String() != "35332811" {
		t.Errorf("TAC.String() = %q", tac.String())
	}
	if short := TAC(42); short.String() != "00000042" {
		t.Errorf("TAC zero padding broken: %q", short.String())
	}
	for _, bad := range []string{"1234567", "123456789", "1234567x"} {
		if _, err := ParseTAC(bad); err == nil {
			t.Errorf("ParseTAC(%q) succeeded", bad)
		}
	}
}

func TestIMEITACPrefix(t *testing.T) {
	// The paper keys the GSMA catalog on the first 8 IMEI digits.
	im := IMEI{TAC: 86012304, Serial: 42}
	if !strings.HasPrefix(im.String(), "86012304") {
		t.Errorf("IMEI %q does not start with its TAC", im.String())
	}
}

func TestHashDeviceStable(t *testing.T) {
	im := IMSI{PLMN: mccmnc.MustParse("21407"), MSIN: 42}
	a, b := HashDevice(im), HashDevice(im)
	if a != b {
		t.Fatal("HashDevice must be deterministic")
	}
	other := IMSI{PLMN: mccmnc.MustParse("21407"), MSIN: 43}
	if HashDevice(other) == a {
		t.Fatal("adjacent IMSIs must hash differently")
	}
}

func TestHashDeviceCollisionFree(t *testing.T) {
	// 200k sequential MSINs (the adversarial case for weak hashes)
	// must not collide.
	plmn := mccmnc.MustParse("20404")
	seen := make(map[DeviceID]uint64, 200000)
	for msin := uint64(0); msin < 200000; msin++ {
		id := HashDevice(IMSI{PLMN: plmn, MSIN: msin})
		if prev, dup := seen[id]; dup {
			t.Fatalf("collision: MSIN %d and %d -> %v", prev, msin, id)
		}
		seen[id] = msin
	}
}

func TestDeviceIDRoundTrip(t *testing.T) {
	f := func(v uint64) bool {
		id := DeviceID(v)
		got, err := ParseDeviceID(id.String())
		return err == nil && got == id
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseDeviceID("xyz"); err == nil {
		t.Error("ParseDeviceID should reject short input")
	}
	if _, err := ParseDeviceID("zzzzzzzzzzzzzzzz"); err == nil {
		t.Error("ParseDeviceID should reject non-hex input")
	}
}

func BenchmarkHashDevice(b *testing.B) {
	im := IMSI{PLMN: mccmnc.MustParse("21407"), MSIN: 123456789}
	for i := 0; i < b.N; i++ {
		_ = HashDevice(im)
	}
}

func BenchmarkIMEIString(b *testing.B) {
	im := IMEI{TAC: 35332811, Serial: 123456}
	for i := 0; i < b.N; i++ {
		_ = im.String()
	}
}

// hashString is HashDevice's reference: FNV-64a over the salt and the
// IMSI's String rendering.
func hashString(im IMSI) DeviceID {
	h := fnv.New64a()
	h.Write([]byte("whereroam/v1"))
	h.Write([]byte(im.String()))
	return DeviceID(h.Sum64())
}

// HashDevice feeds FNV the digits String renders without formatting
// them: the same ID for 2- and 3-digit MNCs, a zero MSIN, an MSIN of
// exactly its width and one wider than its width (printed in full),
// with no allocation.
func TestHashDeviceMatchesString(t *testing.T) {
	two, three := mccmnc.MustParse("21407"), mccmnc.MustParse("334020")
	cases := []IMSI{
		{PLMN: two, MSIN: 123456789},
		{PLMN: three, MSIN: 987654321},
		{PLMN: two, MSIN: 0},
		{PLMN: three, MSIN: 0},
		{PLMN: two, MSIN: 9_999_999_999},  // exactly ten digits
		{PLMN: three, MSIN: 999_999_999},  // exactly nine digits
		{PLMN: two, MSIN: 12_345_678_901}, // wider than ten
		{PLMN: three, MSIN: 1<<64 - 1},    // twenty digits
		{PLMN: mccmnc.PLMN{MCC: 1, MNC: 5, MNCLen: 2}, MSIN: 7},
		{PLMN: mccmnc.PLMN{MCC: 12345, MNC: 1234, MNCLen: 3}, MSIN: 42},
		{PLMN: mccmnc.PLMN{}, MSIN: 0},
	}
	for _, im := range cases {
		if got, want := HashDevice(im), hashString(im); got != want {
			t.Errorf("HashDevice(%q) = %v, want %v", im.String(), got, want)
		}
	}
	f := func(msin uint64, mcc, mnc uint16, mncLen uint8) bool {
		im := IMSI{PLMN: mccmnc.PLMN{MCC: mcc % 1000, MNC: mnc % 1000, MNCLen: 2 + mncLen%2}, MSIN: msin}
		return HashDevice(im) == hashString(im)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	im := cases[0]
	if allocs := testing.AllocsPerRun(100, func() { HashDevice(im) }); allocs != 0 {
		t.Errorf("HashDevice allocates %.0f times per call, want 0", allocs)
	}
}
