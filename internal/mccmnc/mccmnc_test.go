package mccmnc

import (
	"testing"
	"testing/quick"
)

func TestParseValid(t *testing.T) {
	cases := []struct {
		in     string
		mcc    uint16
		mnc    uint16
		mncLen uint8
		str    string
	}{
		{"21407", 214, 7, 2, "214-07"},
		{"334020", 334, 20, 3, "334-020"},
		{"23410", 234, 10, 2, "234-10"},
		{"722310", 722, 310, 3, "722-310"},
		{"20404", 204, 4, 2, "204-04"},
	}
	for _, c := range cases {
		p, err := Parse(c.in)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.in, err)
		}
		if p.MCC != c.mcc || p.MNC != c.mnc || p.MNCLen != c.mncLen {
			t.Errorf("Parse(%q) = %+v", c.in, p)
		}
		if got := p.String(); got != c.str {
			t.Errorf("String(%q) = %q, want %q", c.in, got, c.str)
		}
		if got := p.Concat(); got != c.in {
			t.Errorf("Concat(%q) = %q", c.in, got)
		}
	}
}

func TestParseInvalid(t *testing.T) {
	for _, in := range []string{"", "2140", "2140777", "abcde", "21a07", "19901", "00000"} {
		if _, err := Parse(in); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", in)
		}
	}
}

func TestParseConcatRoundTrip(t *testing.T) {
	// Property: for every registered operator, Parse(Concat(p)) == p.
	for _, op := range AllOperators() {
		got, err := Parse(op.PLMN.Concat())
		if err != nil {
			t.Fatalf("round trip %v: %v", op.PLMN, err)
		}
		if got != op.PLMN {
			t.Errorf("round trip %v -> %v", op.PLMN, got)
		}
	}
}

func TestRegistryConsistency(t *testing.T) {
	// Every operator's country must exist, and the operator's MCC must
	// resolve to that same country.
	for _, op := range AllOperators() {
		c, ok := CountryByISO(op.ISO)
		if !ok {
			t.Fatalf("operator %s references unknown country %q", op.Name, op.ISO)
		}
		byMCC, ok := CountryByMCC(op.PLMN.MCC)
		if !ok {
			t.Fatalf("operator %s: MCC %d not registered", op.Name, op.PLMN.MCC)
		}
		if byMCC.ISO != c.ISO {
			t.Errorf("operator %s: MCC %d maps to %s, operator says %s",
				op.Name, op.PLMN.MCC, byMCC.ISO, c.ISO)
		}
	}
}

func TestRegistryNoDuplicatePLMN(t *testing.T) {
	seen := map[PLMN]string{}
	for _, op := range operatorTable {
		if prev, dup := seen[op.PLMN]; dup {
			t.Errorf("duplicate PLMN %v: %s and %s", op.PLMN, prev, op.Name)
		}
		seen[op.PLMN] = op.Name
	}
}

func TestRegistryScale(t *testing.T) {
	// The paper's ES SIMs roam over 76+ countries; our registry must be
	// able to host a footprint of that order.
	if n := len(allCountries); n < 75 {
		t.Errorf("registry has %d countries, want >= 75", n)
	}
	if n := len(AllOperators()); n < 150 {
		t.Errorf("registry has %d operators, want >= 150", n)
	}
}

func TestPaperAnchors(t *testing.T) {
	// The specific networks the paper's narrative depends on.
	anchors := map[string]string{
		"21407":  "ES", // HMNO issuing 52.3% of IoT SIMs
		"334020": "MX",
		"722070": "AR",
		"26201":  "DE",
		"23410":  "GB", // visited MNO
		"20404":  "NL", // smart-meter SIM provisioner
		"24001":  "SE",
	}
	for concat, iso := range anchors {
		op, ok := Lookup(MustParse(concat))
		if !ok {
			t.Fatalf("anchor operator %s missing from registry", concat)
		}
		if op.ISO != iso {
			t.Errorf("anchor %s: country %s, want %s", concat, op.ISO, iso)
		}
	}
}

func TestSecondaryMCC(t *testing.T) {
	for mcc, iso := range map[uint16]string{235: "GB", 311: "US", 405: "IN"} {
		c, ok := CountryByMCC(mcc)
		if !ok || c.ISO != iso {
			t.Errorf("secondary MCC %d: got (%v,%v), want %s", mcc, c.ISO, ok, iso)
		}
	}
}

func TestSameCountry(t *testing.T) {
	gb1 := MustParse("23410")
	gb2 := PLMN{MCC: 235, MNC: 1, MNCLen: 2} // secondary UK MCC
	es := MustParse("21407")
	if !SameCountry(gb1, gb2) {
		t.Error("234-xx and 235-xx should be the same country (UK)")
	}
	if SameCountry(gb1, es) {
		t.Error("GB and ES must differ")
	}
}

// sameCountryByMap is SameCountry as it read countryByMCC before the
// dense table, kept as the oracle for TestSameCountryMatchesMap.
func sameCountryByMap(a, b PLMN) bool {
	ca, oka := countryByMCC[a.MCC]
	cb, okb := countryByMCC[b.MCC]
	if oka && okb {
		return ca.ISO == cb.ISO
	}
	return a.MCC == b.MCC
}

// TestSameCountryMatchesMap checks the dense table against the map for
// every pair of registered MCCs, and for unregistered MCCs (inside and
// outside the table's range) paired with registered ones and with
// themselves.
func TestSameCountryMatchesMap(t *testing.T) {
	var mccs []uint16
	for mcc := range countryByMCC {
		mccs = append(mccs, mcc)
	}
	if len(mccs) < len(countryTable) {
		t.Fatalf("%d registered MCCs, want at least %d", len(mccs), len(countryTable))
	}
	unregistered := []uint16{0, 1, 199, 999, 1000, 65535}
	for mcc := uint16(200); mcc < 1000 && len(unregistered) < 12; mcc++ {
		if _, ok := countryByMCC[mcc]; !ok {
			unregistered = append(unregistered, mcc)
		}
	}
	all := append(append([]uint16{}, mccs...), unregistered...)
	for _, a := range all {
		for _, b := range all {
			pa, pb := PLMN{MCC: a, MNC: 1, MNCLen: 2}, PLMN{MCC: b, MNC: 2, MNCLen: 3}
			if got, want := SameCountry(pa, pb), sameCountryByMap(pa, pb); got != want {
				t.Fatalf("SameCountry(%d, %d) = %v, the map says %v", a, b, got, want)
			}
		}
	}
}

func TestOperatorsIn(t *testing.T) {
	gb := OperatorsIn("GB")
	if len(gb) != 4 {
		t.Fatalf("GB operators = %d, want 4", len(gb))
	}
	for i := 1; i < len(gb); i++ {
		if !less(gb[i-1].PLMN, gb[i].PLMN) {
			t.Fatal("OperatorsIn must be sorted by PLMN")
		}
	}
	if len(OperatorsIn("XX")) != 0 {
		t.Error("unknown country should have no operators")
	}
}

func TestLookupToleratesMNCLenMismatch(t *testing.T) {
	// "21407" registered with MNCLen 2; a trace might report it as
	// 3-digit 214-007.
	alt := PLMN{MCC: 214, MNC: 7, MNCLen: 3}
	op, ok := Lookup(alt)
	if !ok || op.Name != "Movistar" {
		t.Errorf("Lookup with padded MNC failed: %+v %v", op, ok)
	}
}

func TestCountriesInRegion(t *testing.T) {
	eu := CountriesInRegion(RegionEurope)
	if len(eu) < 30 {
		t.Errorf("Europe has %d countries, want >= 30", len(eu))
	}
	latam := CountriesInRegion(RegionLatAm)
	if len(latam) < 15 {
		t.Errorf("LatAm has %d countries, want >= 15", len(latam))
	}
	// The carrier's PoP footprint is Europe+LatAm heavy, as in §3.
	if len(eu)+len(latam) <= len(CountriesInRegion(RegionAPAC))+len(CountriesInRegion(RegionMEA)) {
		t.Error("registry should be Europe/LatAm heavy to match the carrier footprint")
	}
}

func TestEUZone(t *testing.T) {
	for _, iso := range []string{"ES", "DE", "NL", "SE", "GB", "FR"} {
		c, _ := CountryByISO(iso)
		if !c.EU {
			t.Errorf("%s should be in the EU roaming zone (April 2019)", iso)
		}
	}
	for _, iso := range []string{"CH", "MX", "US", "AU"} {
		c, _ := CountryByISO(iso)
		if c.EU {
			t.Errorf("%s should not be in the EU roaming zone", iso)
		}
	}
}

func TestStringFormatProperty(t *testing.T) {
	// Property: String always renders MNC with its declared width.
	f := func(mcc uint16, mnc uint16, three bool) bool {
		mcc = 200 + mcc%800
		ln := uint8(2)
		mod := uint16(100)
		if three {
			ln = 3
			mod = 1000
		}
		p := PLMN{MCC: mcc, MNC: mnc % mod, MNCLen: ln}
		s := p.Concat()
		if len(s) != 3+int(ln) {
			return false
		}
		got, err := Parse(s)
		return err == nil && got == p
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIsZero(t *testing.T) {
	if !(PLMN{}).IsZero() {
		t.Error("zero PLMN should report IsZero")
	}
	if MustParse("21407").IsZero() {
		t.Error("non-zero PLMN must not report IsZero")
	}
}
