// Package identity implements the subscriber and equipment identifiers
// of the cellular identity plane: IMSI (E.212) and IMEI with its TAC
// prefix (3GPP TS 23.003), plus the one-way hashing used to anonymize
// device identifiers in traces, as both of the paper's datasets do.
package identity

import (
	"fmt"
	"strconv"

	"whereroam/internal/mccmnc"
)

// IMSI is an International Mobile Subscriber Identity: the PLMN of the
// SIM's issuer followed by a Mobile Subscriber Identification Number.
// Total length is at most 15 digits.
type IMSI struct {
	PLMN mccmnc.PLMN
	MSIN uint64 // up to 10 digits (9 when the MNC has 3 digits)
}

// msinDigits returns the MSIN width for the IMSI's MNC length, fixed
// at the maximum allowed so every IMSI renders as 15 digits.
func (im IMSI) msinDigits() int { return 15 - 3 - int(im.PLMN.MNCLen) }

// ParseIMSI parses a 15-digit IMSI string. The MNC length cannot be
// derived from the digits alone (E.212 leaves it to the home registry),
// so the caller supplies mncLen (2 or 3).
//
//roamvet:deadcode-ok paper data model (§2): the IMSI grammar the generators render and the traces hash
func ParseIMSI(s string, mncLen int) (IMSI, error) {
	if len(s) != 15 {
		return IMSI{}, fmt.Errorf("identity: IMSI %q: want 15 digits, have %d", s, len(s))
	}
	if mncLen != 2 && mncLen != 3 {
		return IMSI{}, fmt.Errorf("identity: IMSI MNC length %d: want 2 or 3", mncLen)
	}
	if !allDigits(s) {
		return IMSI{}, fmt.Errorf("identity: IMSI %q: non-digit", s)
	}
	plmn, err := mccmnc.Parse(s[:3+mncLen])
	if err != nil {
		return IMSI{}, fmt.Errorf("identity: IMSI %q: %w", s, err)
	}
	msin, err := strconv.ParseUint(s[3+mncLen:], 10, 64)
	if err != nil {
		return IMSI{}, fmt.Errorf("identity: IMSI %q: MSIN: %w", s, err)
	}
	return IMSI{PLMN: plmn, MSIN: msin}, nil
}

// String renders the IMSI as 15 digits.
func (im IMSI) String() string {
	return im.PLMN.Concat() + fmt.Sprintf("%0*d", im.msinDigits(), im.MSIN)
}

// InRange reports whether the IMSI's MSIN falls inside [lo, hi]. MNOs
// dedicate IMSI ranges to verticals (the paper's UK MNO dedicates one
// to SMIP smart meters); this is the membership test for such ranges.
func (im IMSI) InRange(r IMSIRange) bool {
	return im.PLMN == r.PLMN && im.MSIN >= r.Lo && im.MSIN <= r.Hi
}

// IMSIRange is a dedicated block of MSINs within one PLMN.
type IMSIRange struct {
	PLMN mccmnc.PLMN
	Lo   uint64
	Hi   uint64
}

// Contains reports whether the IMSI falls in the range.
func (r IMSIRange) Contains(im IMSI) bool { return im.InRange(r) }

// TAC is a Type Allocation Code: the first 8 digits of an IMEI,
// statically allocated to a device vendor/model by GSMA.
type TAC uint32

// ParseTAC parses an 8-digit TAC.
func ParseTAC(s string) (TAC, error) {
	if len(s) != 8 || !allDigits(s) {
		return 0, fmt.Errorf("identity: TAC %q: want 8 digits", s)
	}
	v, _ := strconv.ParseUint(s, 10, 32)
	return TAC(v), nil
}

// String renders the TAC as 8 digits.
func (t TAC) String() string { return fmt.Sprintf("%08d", uint32(t)) }

// IMEI is an International Mobile Equipment Identity: 8-digit TAC,
// 6-digit serial number and a Luhn check digit.
type IMEI struct {
	TAC    TAC
	Serial uint32 // 6 digits
}

// ParseIMEI parses a 15-digit IMEI and verifies its Luhn check digit.
//
//roamvet:deadcode-ok paper data model (§2): the IMEI grammar whose TAC prefix keys the GSMA join
func ParseIMEI(s string) (IMEI, error) {
	if len(s) != 15 || !allDigits(s) {
		return IMEI{}, fmt.Errorf("identity: IMEI %q: want 15 digits", s)
	}
	if luhnDigit(s[:14]) != int(s[14]-'0') {
		return IMEI{}, fmt.Errorf("identity: IMEI %q: Luhn check digit mismatch", s)
	}
	tac, _ := ParseTAC(s[:8])
	serial, _ := strconv.ParseUint(s[8:14], 10, 32)
	return IMEI{TAC: tac, Serial: uint32(serial)}, nil
}

// String renders the IMEI as 15 digits including the Luhn check digit.
func (im IMEI) String() string {
	body := fmt.Sprintf("%08d%06d", uint32(im.TAC), im.Serial%1000000)
	return body + strconv.Itoa(luhnDigit(body))
}

// luhnDigit computes the Luhn check digit for a digit string.
func luhnDigit(body string) int {
	sum := 0
	// Walk right to left; double every second digit starting from the
	// rightmost (which precedes the check digit position).
	dbl := true
	for i := len(body) - 1; i >= 0; i-- {
		d := int(body[i] - '0')
		if dbl {
			d *= 2
			if d > 9 {
				d -= 9
			}
		}
		sum += d
		dbl = !dbl
	}
	return (10 - sum%10) % 10
}

// LuhnOK reports whether the digit string's final digit is a valid
// Luhn check digit for the preceding digits.
//
//roamvet:deadcode-ok paper data model (§2): the check-digit rule of every generated IMEI
func LuhnOK(s string) bool {
	if len(s) < 2 || !allDigits(s) {
		return false
	}
	return luhnDigit(s[:len(s)-1]) == int(s[len(s)-1]-'0')
}

// DeviceID is the one-way-hashed device identifier that appears in
// traces instead of the raw IMSI/IMEI, mirroring the anonymization
// both paper datasets apply.
type DeviceID uint64

// HashDevice derives a DeviceID from an IMSI using the FNV-64a
// construction with a fixed salt. The mapping is stable across runs
// (so multi-day datasets join on it) and not reversible without the
// full identifier space.
func HashDevice(im IMSI) DeviceID {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
		salt     = "whereroam/v1"
	)
	h := uint64(offset64)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= prime64
	}
	for i := 0; i < len(salt); i++ {
		mix(salt[i])
	}
	var buf [40]byte
	for _, b := range im.appendDigits(buf[:0]) {
		mix(b)
	}
	return DeviceID(h)
}

// appendDigits appends the digits String renders, without formatting
// through fmt: the MCC as three digits, the MNC zero-padded to MNCLen
// and the MSIN zero-padded to msinDigits, each printed in full when
// wider, as %0*d does. (An MNCLen above 12, which no PLMN has, would
// give String a negative width and a left-justified MSIN.)
func (im IMSI) appendDigits(dst []byte) []byte {
	dst = appendZeroPadded(dst, uint64(im.PLMN.MCC), 3)
	dst = appendZeroPadded(dst, uint64(im.PLMN.MNC), int(im.PLMN.MNCLen))
	return appendZeroPadded(dst, im.MSIN, im.msinDigits())
}

// appendZeroPadded appends v in decimal, zero-padded to width digits
// and in full when wider.
func appendZeroPadded(dst []byte, v uint64, width int) []byte {
	var digits [20]byte
	d := strconv.AppendUint(digits[:0], v, 10)
	for i := len(d); i < width; i++ {
		dst = append(dst, '0')
	}
	return append(dst, d...)
}

// String renders the DeviceID as fixed-width hex, the form used in
// trace files.
func (d DeviceID) String() string { return fmt.Sprintf("%016x", uint64(d)) }

// ParseDeviceID parses the 16-hex-digit form produced by String.
func ParseDeviceID(s string) (DeviceID, error) {
	if len(s) != 16 {
		return 0, fmt.Errorf("identity: device ID %q: want 16 hex digits", s)
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("identity: device ID %q: %w", s, err)
	}
	return DeviceID(v), nil
}

func allDigits(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}
