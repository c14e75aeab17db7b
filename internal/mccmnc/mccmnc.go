// Package mccmnc implements the E.212 public land mobile network
// (PLMN) identity plane: Mobile Country Codes, Mobile Network Codes,
// and a registry of countries and operators.
//
// The registry is a curated, real-world-shaped subset of the ITU E.212
// allocation: it covers the ~80 countries and the operators that the
// paper's M2M platform footprint spans (Europe and Latin America
// heavy, matching the carrier's points of presence), plus the home
// operators the paper anonymizes as ES/DE/MX/AR and the UK visited
// MNO with its NL/SE/ES inbound-roamer sources.
package mccmnc

import (
	"fmt"
	"sort"
	"strconv"
)

// PLMN identifies a public land mobile network: an MCC plus an MNC.
// MNCs are 2 or 3 digits and the digit count is significant (E.212
// "214-07" and a hypothetical "214-007" are different networks), so
// the length is carried alongside the value. PLMN is comparable and
// usable as a map key.
type PLMN struct {
	MCC    uint16
	MNC    uint16
	MNCLen uint8 // 2 or 3
}

// Parse parses a concatenated MCC+MNC string such as "21407" (2-digit
// MNC) or "334020" (3-digit MNC). Length decides the MNC width: 5
// characters mean a 2-digit MNC, 6 a 3-digit MNC.
func Parse(s string) (PLMN, error) {
	if len(s) != 5 && len(s) != 6 {
		return PLMN{}, fmt.Errorf("mccmnc: %q: want 5 or 6 digits, have %d", s, len(s))
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return PLMN{}, fmt.Errorf("mccmnc: %q: non-digit at position %d", s, i)
		}
	}
	mcc, _ := strconv.Atoi(s[:3])
	mnc, _ := strconv.Atoi(s[3:])
	if mcc < 200 || mcc > 999 {
		return PLMN{}, fmt.Errorf("mccmnc: %q: MCC %d outside geographic range [200,999]", s, mcc)
	}
	return PLMN{MCC: uint16(mcc), MNC: uint16(mnc), MNCLen: uint8(len(s) - 3)}, nil
}

// MustParse is Parse for static initialization; it panics on error.
func MustParse(s string) PLMN {
	p, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return p
}

// String renders the PLMN in the conventional "MCC-MNC" form, e.g.
// "214-07" or "334-020".
func (p PLMN) String() string {
	return fmt.Sprintf("%03d-%0*d", p.MCC, int(p.MNCLen), p.MNC)
}

// Concat renders the PLMN as concatenated digits, e.g. "21407", the
// form used inside IMSIs and APN operator identifiers.
func (p PLMN) Concat() string {
	return fmt.Sprintf("%03d%0*d", p.MCC, int(p.MNCLen), p.MNC)
}

// IsZero reports whether p is the zero PLMN.
func (p PLMN) IsZero() bool { return p == PLMN{} }

// Region is a coarse geographic grouping used to model the carrier's
// point-of-presence footprint (strong in Europe and Latin America).
type Region uint8

// Regions of the world as the carrier footprint model sees them.
const (
	RegionUnknown Region = iota
	RegionEurope
	RegionLatAm
	RegionNorthAmerica
	RegionAPAC
	RegionMEA
)

var regionNames = [...]string{"unknown", "Europe", "LatAm", "NorthAmerica", "APAC", "MEA"}

func (r Region) String() string {
	if int(r) < len(regionNames) {
		return regionNames[r]
	}
	return "region(" + strconv.Itoa(int(r)) + ")"
}

// Country is one row of the country registry.
type Country struct {
	MCC    uint16  // primary MCC (countries with several share the primary here)
	ISO    string  // ISO 3166-1 alpha-2
	Name   string  // English short name
	Region Region  // coarse region
	Lat    float64 // rough population centroid, degrees
	Lon    float64
	EU     bool // member of the EU "roam like at home" regulation zone
}

// Operator is one row of the operator registry.
type Operator struct {
	PLMN PLMN
	Name string
	ISO  string // country of the operator
}

// CountryByMCC returns the country that owns the MCC.
func CountryByMCC(mcc uint16) (Country, bool) {
	c, ok := countryByMCC[mcc]
	return c, ok
}

// CountryByISO returns the country with the ISO 3166 alpha-2 code.
func CountryByISO(iso string) (Country, bool) {
	c, ok := countryByISO[iso]
	return c, ok
}

// ISOByMCC returns the ISO country code for the MCC, or "" if unknown.
func ISOByMCC(mcc uint16) string {
	if c, ok := countryByMCC[mcc]; ok {
		return c.ISO
	}
	return ""
}

// Lookup returns the operator registered under the PLMN. Lookups
// ignore MNCLen mismatches if digits agree, since traces sometimes
// zero-pad MNCs inconsistently.
func Lookup(p PLMN) (Operator, bool) {
	if op, ok := operatorByPLMN[p]; ok {
		return op, true
	}
	alt := p
	if p.MNCLen == 2 {
		alt.MNCLen = 3
	} else {
		alt.MNCLen = 2
	}
	op, ok := operatorByPLMN[alt]
	return op, ok
}

// OperatorsIn returns all registered operators in the ISO country,
// sorted by PLMN for determinism.
func OperatorsIn(iso string) []Operator {
	ops := make([]Operator, len(operatorsByISO[iso]))
	copy(ops, operatorsByISO[iso])
	return ops
}

// CountriesInRegion returns registered countries in the region,
// sorted by ISO code.
func CountriesInRegion(r Region) []Country {
	var out []Country
	for _, c := range allCountries {
		if c.Region == r {
			out = append(out, c)
		}
	}
	return out
}

// AllOperators returns every registered operator sorted by PLMN.
func AllOperators() []Operator {
	out := make([]Operator, len(allOperators))
	copy(out, allOperators)
	return out
}

// SameCountry reports whether two PLMNs belong to the same country.
// It resolves via the registry so that countries with multiple MCCs
// (e.g. the UK's 234/235) compare as equal.
func SameCountry(a, b PLMN) bool {
	ca, cb := countryIDOf(a.MCC), countryIDOf(b.MCC)
	if ca != 0 && cb != 0 {
		return ca == cb
	}
	return a.MCC == b.MCC
}

// countryIDOf returns the country ID countryID holds for mcc, or 0 for
// an unregistered MCC.
func countryIDOf(mcc uint16) uint16 {
	if int(mcc) < len(countryID) {
		return countryID[mcc]
	}
	return 0
}

var (
	countryByMCC   = map[uint16]Country{}
	countryByISO   = map[string]Country{}
	operatorByPLMN = map[PLMN]Operator{}
	operatorsByISO = map[string][]Operator{}
	allCountries   []Country
	allOperators   []Operator
	// countryID is countryByMCC as a dense table: one ID per ISO code
	// (from 1), 0 where the MCC is unregistered. SameCountry reads it.
	countryID [1000]uint16
)

func init() {
	ids := map[string]uint16{}
	register := func(mcc uint16, c Country) {
		countryByMCC[mcc] = c
		if ids[c.ISO] == 0 {
			ids[c.ISO] = uint16(len(ids) + 1)
		}
		countryID[mcc] = ids[c.ISO]
	}
	for _, c := range countryTable {
		register(c.MCC, c)
		countryByISO[c.ISO] = c
		allCountries = append(allCountries, c)
	}
	// Secondary MCC allocations that map to an already-registered
	// country (E.212 grants some countries several MCCs).
	for mcc, iso := range secondaryMCC {
		if c, ok := countryByISO[iso]; ok {
			register(mcc, c)
		}
	}
	sort.Slice(allCountries, func(i, j int) bool { return allCountries[i].ISO < allCountries[j].ISO })
	for _, op := range operatorTable {
		operatorByPLMN[op.PLMN] = op
		operatorsByISO[op.ISO] = append(operatorsByISO[op.ISO], op)
		allOperators = append(allOperators, op)
	}
	for iso := range operatorsByISO {
		ops := operatorsByISO[iso]
		sort.Slice(ops, func(i, j int) bool { return less(ops[i].PLMN, ops[j].PLMN) })
	}
	sort.Slice(allOperators, func(i, j int) bool { return less(allOperators[i].PLMN, allOperators[j].PLMN) })
}

func less(a, b PLMN) bool {
	if a.MCC != b.MCC {
		return a.MCC < b.MCC
	}
	return a.MNC < b.MNC
}
