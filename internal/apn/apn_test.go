package apn

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"whereroam/internal/mccmnc"
)

func TestParsePaperExample(t *testing.T) {
	// The worked example from §4.3 of the paper.
	a, err := Parse("smhp.centricaplc.com.mnc004.mcc204.gprs")
	if err != nil {
		t.Fatal(err)
	}
	if a.NetworkID != "smhp.centricaplc.com" {
		t.Errorf("NetworkID = %q", a.NetworkID)
	}
	want := mccmnc.MustParse("20404") // Vodafone NL
	if a.Operator != want {
		t.Errorf("Operator = %v, want %v", a.Operator, want)
	}
	op, ok := mccmnc.Lookup(a.Operator)
	if !ok || op.Name != "Vodafone NL" {
		t.Errorf("operator lookup = %+v, %v", op, ok)
	}
}

func TestParseBareNetworkID(t *testing.T) {
	a, err := Parse("payandgo.o2.co.uk")
	if err != nil {
		t.Fatal(err)
	}
	if !a.Operator.IsZero() {
		t.Error("bare NI should have no operator")
	}
	if a.String() != "payandgo.o2.co.uk" {
		t.Errorf("String = %q", a.String())
	}
}

func TestParseNormalizesCase(t *testing.T) {
	a, err := Parse("  Internet.Provider.COM ")
	if err != nil {
		t.Fatal(err)
	}
	if a.NetworkID != "internet.provider.com" {
		t.Errorf("NetworkID = %q", a.NetworkID)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"mnc004.mcc204.gprs",                    // OI without NI
		"a..b",                                  // empty label
		"bad char.com",                          // space
		"-lead.com",                             // leading hyphen
		"trail-.com",                            // trailing hyphen
		"a.mncXXX.mcc204.gprs",                  // malformed MNC
		"a.mnc04.mcc204.gprs",                   // MNC label must be 3 digits
		"rac.internal",                          // reserved prefix
		strings.Repeat("a", 101),                // too long
		"x." + strings.Repeat("b", 64) + ".com", // label too long
	}
	for _, s := range cases {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", s)
		}
	}
}

func TestRoundTripProperty(t *testing.T) {
	// Property: Parse(String(a)) == a for valid APNs.
	networks := []string{
		"smhp.centricaplc.com", "scania.fleet", "rwe.meter", "intelligent.m2m",
		"internet", "iot.global-sim.io", "wap.telco", "m2m.tele2.com",
	}
	operators := []mccmnc.PLMN{
		{}, mccmnc.MustParse("20404"), mccmnc.MustParse("23410"), mccmnc.MustParse("334020"),
	}
	for _, ni := range networks {
		for _, op := range operators {
			a := APN{NetworkID: ni, Operator: op}
			got, err := Parse(a.String())
			if err != nil {
				t.Fatalf("Parse(String(%v)) failed: %v", a, err)
			}
			if got != a {
				t.Errorf("round trip %v -> %q -> %v", a, a.String(), got)
			}
		}
	}
}

func TestRoundTripQuick(t *testing.T) {
	labels := []string{"smart", "meter", "iot", "m2m", "fleet", "telemetry", "vertical", "global"}
	f := func(i, j, k uint8, withOp bool) bool {
		ni := labels[int(i)%len(labels)] + "." + labels[int(j)%len(labels)] + "-" + labels[int(k)%len(labels)]
		a := APN{NetworkID: ni}
		if withOp {
			a.Operator = mccmnc.MustParse("26201")
		}
		got, err := Parse(a.String())
		return err == nil && got == a
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestOperatorIDAlwaysThreeDigitMNC(t *testing.T) {
	a := APN{NetworkID: "x", Operator: mccmnc.MustParse("20404")} // MNC 04, 2-digit
	if got := a.String(); got != "x.mnc004.mcc204.gprs" {
		t.Errorf("String = %q, want zero-padded mnc004", got)
	}
}

func TestParseUnregisteredOperator(t *testing.T) {
	// MNC 99 is not registered under MCC 204; the parser should fall
	// back to a 2-digit MNC for small values.
	a, err := Parse("svc.mnc099.mcc204.gprs")
	if err != nil {
		t.Fatal(err)
	}
	if a.Operator.MNC != 99 || a.Operator.MNCLen != 2 {
		t.Errorf("Operator = %+v", a.Operator)
	}
	// Large MNC values stay 3-digit.
	b, err := Parse("svc.mnc740.mcc722.gprs")
	if err != nil {
		t.Fatal(err)
	}
	if b.Operator.MNCLen != 3 {
		t.Errorf("Operator = %+v, want 3-digit MNC", b.Operator)
	}
}

func TestKeywords(t *testing.T) {
	a := MustParse("smhp.centricaplc.com.mnc004.mcc204.gprs")
	kws := keywords(a)
	want := map[string]bool{"smhp": true, "centricaplc": true}
	if len(kws) != len(want) {
		t.Fatalf("Keywords = %v", kws)
	}
	for _, k := range kws {
		if !want[k] {
			t.Errorf("unexpected keyword %q", k)
		}
	}
	b := MustParse("global-iot_data.scania.net")
	got := strings.Join(keywords(b), ",")
	if got != "global,iot,data,scania" {
		t.Errorf("Keywords = %q", got)
	}
}

func TestContainsKeyword(t *testing.T) {
	a := MustParse("device.intelligent.m2m.provider.com")
	if !a.ContainsKeyword("intelligent.m2m") {
		t.Error("dotted keyword should match dotted substring")
	}
	if !a.ContainsKeyword("provider") {
		t.Error("plain keyword should match token")
	}
	if a.ContainsKeyword("intel") {
		t.Error("partial token must not match")
	}
	if a.ContainsKeyword("m2m.device") {
		t.Error("out-of-order dotted keyword must not match")
	}
	b := MustParse("rwe-meter.energy.de")
	if !b.ContainsKeyword("rwe") {
		t.Error("hyphen-split keyword should match")
	}
}

func TestIsZero(t *testing.T) {
	if !(APN{}).IsZero() {
		t.Error("zero APN should be zero")
	}
	if MustParse("internet").IsZero() {
		t.Error("parsed APN must not be zero")
	}
}

func BenchmarkParseFull(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Parse("smhp.centricaplc.com.mnc004.mcc204.gprs"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKeywords(b *testing.B) {
	a := MustParse("device.intelligent.m2m.provider.com")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.EachKeyword(func(string) bool { return true })
	}
}

// keywords collects EachKeyword's tokens.
func keywords(a APN) []string {
	var out []string
	a.EachKeyword(func(tok string) bool {
		out = append(out, tok)
		return true
	})
	return out
}

// splitKeywords is the two-pass tokenizer EachKeyword replaced: dot
// labels through strings.Split, then hyphen/underscore fields through
// strings.FieldsFunc, with the same skip rule.
func splitKeywords(ni string) []string {
	var out []string
	for _, lbl := range strings.Split(ni, ".") {
		for _, tok := range strings.FieldsFunc(lbl, func(r rune) bool { return r == '-' || r == '_' }) {
			if len(tok) <= 2 || tok == "com" || tok == "net" || tok == "org" || tok == "www" {
				continue
			}
			out = append(out, tok)
		}
	}
	return out
}

// checkKeywords compares the in-place tokenizer and the matcher built
// on it with the two-pass tokenizer and a padded strings.Contains.
func checkKeywords(t *testing.T, ni, kw string) {
	t.Helper()
	a := APN{NetworkID: ni}
	want := splitKeywords(ni)
	if got := keywords(a); !slices.Equal(got, want) {
		t.Fatalf("EachKeyword(%q) = %q, two-pass tokenizer %q", ni, got, want)
	}
	var walked []string
	a.EachKeyword(func(tok string) bool {
		walked = append(walked, tok)
		return len(walked) < 2
	})
	if n := min(len(want), 2); !slices.Equal(walked, want[:n]) {
		t.Fatalf("EachKeyword(%q) stopped early = %q, want %q", ni, walked, want[:n])
	}
	var ref bool
	if strings.Contains(kw, ".") {
		ref = strings.Contains("."+ni+".", "."+kw+".")
	} else {
		ref = slices.Contains(want, kw)
	}
	if got := a.ContainsKeyword(kw); got != ref {
		t.Fatalf("ContainsKeyword(%q, %q) = %v, reference %v", ni, kw, got, ref)
	}
}

// Matching walks the Network Identifier in place: neither rule
// allocates.
func TestContainsKeywordAllocatesNothing(t *testing.T) {
	a := MustParse("device-fleet.intelligent.m2m.provider.com")
	allocs := testing.AllocsPerRun(100, func() {
		a.ContainsKeyword("fleet")
		a.ContainsKeyword("intelligent.m2m")
		a.ContainsKeyword("absent.pair")
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocations per run, want 0", allocs)
	}
}

// FuzzAPNKeywords checks the in-place tokenizer, and ContainsKeyword
// on both of its rules, against the two-pass tokenizer and a padded
// strings.Contains on arbitrary bytes. The seeds are the corners of
// the grammar: empty labels and fields, generic tails, repeated and
// overlapping dotted keywords, non-ASCII and invalid UTF-8.
func FuzzAPNKeywords(f *testing.F) {
	for _, c := range [][2]string{
		{"smhp.centricaplc.com", "smhp"},
		{"global-iot_data.scania.net", "iot"}, {"global-iot_data.scania.net", "iot.data"},
		{"a..b", "a.b"}, {"..", "."}, {".lead.", "lead"}, {"", "x"},
		{"a--b", "a"}, {"--x--_y_", "x"}, {"-_-", "y"}, {"a..b--c__d.", "b--c"},
		{"intelligent.m2m.intelligent.m2m", "intelligent.m2m"},
		{"xintelligent.m2m", "intelligent.m2m"}, {"intelligent.m2mx", "intelligent.m2m"},
		{"m2m.intelligent.m2m", "m2m.intelligent"}, {"a.b.a.b.c", "a.b.c"},
		{"smärt-grid.ü", "smärt"}, {"\xff\xfe-pos.\xc3", "\xff\xfe"}, {"télématique_m2m", "m2m"},
		{"www.org.net.com.uk", "www"},
	} {
		f.Add(c[0], c[1])
	}
	f.Fuzz(checkKeywords)
}

// TestParseAllocatesNothing pins the in-place cut: parsing an APN that
// is already lower case allocates nothing, with or without an OI.
func TestParseAllocatesNothing(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := Parse("smhp.centricaplc.com.mnc004.mcc204.gprs"); err != nil {
			t.Fatal(err)
		}
		if _, err := Parse("device-fleet.intelligent.m2m"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocations per run, want 0", allocs)
	}
}

// parseReference is the strings.Split/strings.Join parser Parse
// replaced, kept as the oracle for FuzzAPNParse.
func parseReference(s string) (APN, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	if s == "" {
		return APN{}, errors.New("empty")
	}
	if len(s) > maxAPNLen {
		return APN{}, errors.New("too long")
	}
	labels := strings.Split(s, ".")
	var out APN
	if len(labels) >= 3 && labels[len(labels)-1] == "gprs" {
		mnc, okMNC := parseCodeLabel(labels[len(labels)-3], "mnc")
		mcc, okMCC := parseCodeLabel(labels[len(labels)-2], "mcc")
		if !okMNC || !okMCC {
			return APN{}, errors.New("malformed operator identifier")
		}
		plmn := mccmnc.PLMN{MCC: mcc, MNC: mnc, MNCLen: 3}
		if op, ok := mccmnc.Lookup(plmn); ok {
			plmn = op.PLMN
		} else if mnc < 100 {
			plmn.MNCLen = 2
		}
		out.Operator = plmn
		labels = labels[:len(labels)-3]
	}
	if len(labels) == 0 {
		return APN{}, errors.New("no network identifier")
	}
	for _, lbl := range labels {
		if err := checkLabel(lbl); err != nil {
			return APN{}, err
		}
	}
	out.NetworkID = strings.Join(labels, ".")
	for _, reserved := range []string{"rac", "lac", "sgsn", "rnc"} {
		if strings.HasPrefix(out.NetworkID, reserved+".") || out.NetworkID == reserved {
			return APN{}, errors.New("reserved label")
		}
	}
	return out, nil
}

// FuzzAPNParse checks the in-place Parse against parseReference: the
// same APN on success, and an error on exactly the same inputs. The
// seeds are the corners of the Operator Identifier cut.
func FuzzAPNParse(f *testing.F) {
	for _, s := range []string{
		"mnc001.mcc234.gprs", ".mnc001.mcc234.gprs", "x.gprs", "rac.x",
		"SMHP.CentricaPLC.com.MNC004.MCC204.GPRS", "  internet.provider.com \t",
		"smhp.centricaplc.com.mnc004.mcc204.gprs", "a.mnc+01.mcc204.gprs",
		"gprs", ".gprs", "..gprs", "a..gprs", "a.mcc204.gprs", "a.mnc004.gprs",
		"rac", "racx.y", "sgsn.mnc004.mcc204.gprs", "a.b.mnc999.mcc999.gprs",
		"x.mnc004.mcc204.gprs.gprs", "a.", ".a", "a..b", "-a.b", "",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, err := Parse(s)
		want, wantErr := parseReference(s)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("Parse(%q) error %v, reference error %v", s, err, wantErr)
		}
		if err == nil && got != want {
			t.Fatalf("Parse(%q) = %+v, reference %+v", s, got, want)
		}
	})
}
