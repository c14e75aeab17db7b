// Package apn implements Access Point Name parsing and construction
// following 3GPP TS 23.003 §9: an APN is a Network Identifier (chosen
// by the service, e.g. "smhp.centricaplc.com") optionally followed by
// an Operator Identifier ("mnc004.mcc204.gprs") naming the home
// network that resolves it.
//
// APN strings are the strongest classification signal the paper has:
// the Network Identifier hints the IoT vertical (energy, automotive,
// global IoT SIM platforms) and the Operator Identifier reveals the
// home operator — the paper's worked example is
// "smhp.centricaplc.com.mnc004.mcc204.gprs", a Centrica (energy) APN
// homed on Vodafone NL.
package apn

import (
	"fmt"
	"strconv"
	"strings"

	"whereroam/internal/mccmnc"
)

// APN is a parsed Access Point Name.
type APN struct {
	// NetworkID is the service-chosen part, lower-case, dot-separated
	// labels ("smhp.centricaplc.com", "payandgo.o2.co.uk").
	NetworkID string
	// Operator is the home network from the Operator Identifier
	// suffix, or the zero PLMN when the APN has no such suffix (the
	// form subscribers usually see).
	Operator mccmnc.PLMN
}

// maxAPNLen bounds the rendered APN per TS 23.003 (100 octets).
const maxAPNLen = 100

// Parse parses an APN string. It accepts both the bare Network
// Identifier form ("internet.provider.com") and the full form with an
// Operator Identifier suffix ("x.y.mncNNN.mccNNN.gprs"). Parsing is
// case-insensitive; the result is normalized to lower case.
func Parse(s string) (APN, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	if s == "" {
		return APN{}, fmt.Errorf("apn: empty string")
	}
	if len(s) > maxAPNLen {
		return APN{}, fmt.Errorf("apn: %q: longer than %d octets", s, maxAPNLen)
	}
	var out APN
	// The Network Identifier is a prefix of s: cut the 3-label
	// Operator Identifier suffix off in place when there is one.
	ni := s
	if rest, ok := strings.CutSuffix(s, ".gprs"); ok {
		if i := strings.LastIndexByte(rest, '.'); i >= 0 {
			mccLbl := rest[i+1:]
			j := strings.LastIndexByte(rest[:i], '.')
			mncLbl := rest[j+1 : i]
			mnc, okMNC := parseCodeLabel(mncLbl, "mnc")
			mcc, okMCC := parseCodeLabel(mccLbl, "mcc")
			if !okMNC || !okMCC {
				return APN{}, fmt.Errorf("apn: %q: malformed operator identifier", s)
			}
			// The OI always carries a 3-digit, zero-padded MNC; recover
			// the registry's MNC length so the PLMN compares equal to the
			// one in traces.
			plmn := mccmnc.PLMN{MCC: mcc, MNC: mnc, MNCLen: 3}
			if op, ok := mccmnc.Lookup(plmn); ok {
				plmn = op.PLMN
			} else if mnc < 100 {
				// Unregistered network: assume 2-digit for small MNCs,
				// matching common European practice.
				plmn.MNCLen = 2
			}
			out.Operator = plmn
			if j < 0 {
				return APN{}, fmt.Errorf("apn: %q: operator identifier without network identifier", s)
			}
			ni = rest[:j]
		}
	}
	for rest := ni; ; {
		lbl, tail, more := strings.Cut(rest, ".")
		if err := checkLabel(lbl); err != nil {
			return APN{}, fmt.Errorf("apn: %q: %w", s, err)
		}
		if !more {
			break
		}
		rest = tail
	}
	out.NetworkID = ni
	// TS 23.003: the NI must not start with reserved prefixes used by
	// network-internal DNS.
	first, _, _ := strings.Cut(ni, ".")
	switch first {
	case "rac", "lac", "sgsn", "rnc":
		return APN{}, fmt.Errorf("apn: %q: network identifier starts with reserved label %q", s, first)
	}
	return out, nil
}

// parseCodeLabel parses "mnc004"-style labels and returns the value.
func parseCodeLabel(lbl, prefix string) (uint16, bool) {
	if len(lbl) != len(prefix)+3 || !strings.HasPrefix(lbl, prefix) {
		return 0, false
	}
	v, err := strconv.Atoi(lbl[len(prefix):])
	if err != nil || v < 0 {
		return 0, false
	}
	return uint16(v), true
}

func checkLabel(lbl string) error {
	if lbl == "" {
		return fmt.Errorf("empty label")
	}
	if len(lbl) > 63 {
		return fmt.Errorf("label %q longer than 63 octets", lbl)
	}
	for i := 0; i < len(lbl); i++ {
		c := lbl[i]
		switch {
		case c >= 'a' && c <= 'z', c >= '0' && c <= '9', c == '-', c == '_':
		default:
			return fmt.Errorf("label %q: invalid character %q", lbl, c)
		}
	}
	if lbl[0] == '-' || lbl[len(lbl)-1] == '-' {
		return fmt.Errorf("label %q: leading or trailing hyphen", lbl)
	}
	return nil
}

// MustParse is Parse for static initialization; it panics on error.
func MustParse(s string) APN {
	a, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return a
}

// String renders the APN, appending the Operator Identifier when the
// home network is known. The OI always uses a 3-digit zero-padded MNC
// per TS 23.003.
func (a APN) String() string {
	if a.Operator.IsZero() {
		return a.NetworkID
	}
	return fmt.Sprintf("%s.mnc%03d.mcc%03d.gprs", a.NetworkID, a.Operator.MNC, a.Operator.MCC)
}

// IsZero reports whether the APN is empty.
func (a APN) IsZero() bool { return a.NetworkID == "" && a.Operator.IsZero() }

// EachKeyword tokenizes the Network Identifier into the lookup keys
// the classifier matches its keyword table against: dot labels are
// split further on hyphens and underscores, and the generic DNS tails
// ("com", "net", "org", country TLDs of length 2) are dropped. It
// calls f with each token in order, until f returns false, without
// building a slice: the tokens are substrings of the Network
// Identifier. It is the package's one tokenizer. Splitting on dots and
// then on hyphens and underscores, dropping empty fields, leaves the
// maximal runs of bytes that are none of the three; all are ASCII, so
// no UTF-8 sequence is ever cut.
func (a APN) EachKeyword(f func(tok string) bool) {
	s := a.NetworkID
	for i := 0; i < len(s); {
		if isKeywordSep(s[i]) {
			i++
			continue
		}
		j := i + 1
		for j < len(s) && !isKeywordSep(s[j]) {
			j++
		}
		if tok := s[i:j]; !genericToken(tok) && !f(tok) {
			return
		}
		i = j
	}
}

func isKeywordSep(c byte) bool { return c == '.' || c == '-' || c == '_' }

// genericToken reports whether a token is too short or too generic to
// be a keyword: two bytes or fewer (country TLDs), or a generic DNS
// label.
func genericToken(tok string) bool {
	return len(tok) <= 2 || tok == "com" || tok == "net" || tok == "org" || tok == "www"
}

// ContainsKeyword reports whether any Network Identifier token equals
// kw, or whether kw (which may itself be dotted, like
// "intelligent.m2m") appears as a dotted substring of the NI: a run of
// whole labels. It allocates nothing.
func (a APN) ContainsKeyword(kw string) bool {
	if strings.Contains(kw, ".") {
		return containsLabels(a.NetworkID, kw)
	}
	found := false
	a.EachKeyword(func(tok string) bool {
		found = tok == kw
		return !found
	})
	return found
}

// containsLabels reports whether kw occurs in ni starting and ending
// at label boundaries — strings.Contains("."+ni+".", "."+kw+".")
// without building either string.
func containsLabels(ni, kw string) bool {
	for off := 0; off+len(kw) <= len(ni); {
		i := strings.Index(ni[off:], kw)
		if i < 0 {
			return false
		}
		lo, hi := off+i, off+i+len(kw)
		if (lo == 0 || ni[lo-1] == '.') && (hi == len(ni) || ni[hi] == '.') {
			return true
		}
		off = lo + 1
	}
	return false
}
