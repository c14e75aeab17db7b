package core

import (
	"sort"
	"strconv"
	"strings"

	"whereroam/internal/apn"
	"whereroam/internal/catalog"
	"whereroam/internal/gsma"
	"whereroam/internal/identity"
)

// Class is the classifier's output (§4.3).
type Class uint8

// Classifier output classes.
const (
	// ClassSmart is a smartphone.
	ClassSmart Class = iota
	// ClassFeat is a feature phone.
	ClassFeat
	// ClassM2M is an IoT/M2M device.
	ClassM2M
	// ClassM2MMaybe is the residue: device properties suggest
	// neither a smartphone nor a feature phone, but with no APN
	// evidence the classification cannot be finalized (§4.3 excludes
	// these from further analysis).
	ClassM2MMaybe
)

var classNames = [...]string{"smart", "feat", "m2m", "m2m-maybe"}

func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return "class(" + strconv.Itoa(int(c)) + ")"
}

// DefaultM2MKeywords is the keyword table mapping APN tokens to
// M2M/IoT verticals — the analogue of the 26 keywords the paper
// derived by ranking APNs by device count and investigating the top
// strings online (scania → automotive, rwe → energy,
// intelligent.m2m → global IoT SIM provider, ...).
//
// The table is classifier-side knowledge: it deliberately does not
// mirror the generator's APN pools one-for-one (some verticals'
// strings are missed, exactly as a real analyst would miss tail
// services), so the property-closure step has real work to do.
var DefaultM2MKeywords = []string{
	// Energy / smart metering.
	"smhp", "centricaplc", "rwe", "npower", "elster", "metering",
	"generalelectric", "bglobal", "smartgrid", "edfenergy", "smip", "amr",
	// Automotive.
	"scania", "telematics", "connecteddrive", "daimler", "uconnect",
	"volvocars",
	// Global IoT SIM platforms.
	"intelligent.m2m", "m2m",
	// Logistics and tracking.
	"fleet", "asset", "cargotrace",
	// Payments.
	"pos", "payment",
	// Wearables.
	"wearable",
}

// DefaultConsumerKeywords marks the generic operator APNs of
// person-devices (the paper's 2,178 consumer strings, e.g.
// "payandgo").
var DefaultConsumerKeywords = []string{
	"payandgo", "internet", "web", "wap", "mms", "prepay", "contract",
	"broadband", "mobile", "data", "roaming",
}

// Classifier implements the paper's multi-step classification:
// keywords → validated APNs → device-property closure, with
// OS/GSMA-label rules for the phone classes.
type Classifier struct {
	m2m      keywordTable
	consumer keywordTable
	// Steps allows disabling the later pipeline stages for the
	// ablation study (the abl-classifier experiment).
	Steps Steps
	// declared carries capture-time IR.88 verdicts (see
	// WithDeclarations); nil when no transparency data exists.
	declared map[identity.DeviceID]bool
}

// Steps selects which pipeline stages run.
type Steps struct {
	// ValidateAPNs runs step 2 (mark devices on validated APNs).
	ValidateAPNs bool
	// PropertyClosure runs step 3 (extend m2m to devices sharing the
	// properties of validated-APN devices).
	PropertyClosure bool
}

// AllSteps enables the full pipeline.
var AllSteps = Steps{ValidateAPNs: true, PropertyClosure: true}

// NewClassifier returns the standard classifier.
func NewClassifier() *Classifier {
	return &Classifier{
		m2m:      newKeywordTable(DefaultM2MKeywords),
		consumer: newKeywordTable(DefaultConsumerKeywords),
		Steps:    AllSteps,
	}
}

// keywordTable is a keyword list indexed by matching rule, so an APN is
// tokenised once and tested against the whole list: a plain keyword
// matches when it equals one of the APN's tokens, a dotted keyword
// ("intelligent.m2m") when it is a dotted substring of the Network
// Identifier — the two rules of [apn.APN.ContainsKeyword].
type keywordTable struct {
	plain  map[string]bool
	dotted []string
}

func newKeywordTable(keywords []string) keywordTable {
	t := keywordTable{plain: make(map[string]bool, len(keywords))}
	for _, kw := range keywords {
		if strings.Contains(kw, ".") {
			t.dotted = append(t.dotted, kw)
		} else {
			t.plain[kw] = true
		}
	}
	return t
}

// matches reports whether any keyword of the table matches a. It
// walks the APN's tokens in place and allocates nothing.
func (t *keywordTable) matches(a apn.APN) bool {
	hit := false
	a.EachKeyword(func(tok string) bool {
		hit = t.plain[tok]
		return !hit
	})
	if hit {
		return true
	}
	for _, kw := range t.dotted {
		if a.ContainsKeyword(kw) {
			return true
		}
	}
	return false
}

// Result is the classification of one device.
type Result struct {
	Device identity.DeviceID
	Class  Class
	// Evidence names the rule that fired, for auditability:
	// "apn-keyword", "apn-validated", "property-closure",
	// "smartphone-os", "gsma-feature-phone", "consumer-apn",
	// "no-evidence".
	Evidence string
}

// ClassifyWorkers runs the pipeline over device summaries and returns
// one Result per summary, in the same order. It is three serial passes:
// step 1 collects the validated APNs, step 2 the m2m TACs of the
// devices that use one, and only after both sets are complete does the
// per-device pass run. workers is not read: at the population sizes
// the pipeline runs at, two workers lose at 300 and 3 000 devices and
// save about a millisecond at 30 000, so the passes stay on the
// caller's goroutine. The parameter remains for the callers that pass it.
func (c *Classifier) ClassifyWorkers(sums []catalog.Summary, workers int) []Result {
	// Step 1: collect validated APNs — APN strings used in the
	// population that match an M2M vertical keyword.
	validated := c.validatedIn(sums)

	// Step 2: devices using validated APNs are m2m; remember their
	// device properties (TAC) for the closure. Needs the complete
	// validated set, hence the second pass.
	m2mTACs := map[identity.TAC]bool{}
	if c.Steps.ValidateAPNs {
		for i := range sums {
			if sums[i].TAC != 0 && c.usesValidated(&sums[i], validated) {
				m2mTACs[sums[i].TAC] = true
			}
		}
	}

	out := make([]Result, len(sums))
	for i := range sums {
		out[i] = c.classifyOne(&sums[i], validated, m2mTACs)
	}
	return out
}

// validatedIn is step 1: the set of the summaries' APNs that match an
// M2M keyword. A handful of APNs label a whole population, so each
// distinct APN is judged the first time it is met.
func (c *Classifier) validatedIn(sums []catalog.Summary) map[apn.APN]bool {
	verdict := map[apn.APN]bool{}
	for i := range sums {
		for _, a := range sums[i].APNs {
			if _, judged := verdict[a]; !judged {
				verdict[a] = c.m2m.matches(a)
			}
		}
	}
	for a, ok := range verdict {
		if !ok {
			delete(verdict, a)
		}
	}
	return verdict
}

func (c *Classifier) usesValidated(s *catalog.Summary, validated map[apn.APN]bool) bool {
	for _, a := range s.APNs {
		if validated[a] {
			return true
		}
	}
	return false
}

func (c *Classifier) classifyOne(s *catalog.Summary, validated map[apn.APN]bool, m2mTACs map[identity.TAC]bool) Result {
	r := Result{Device: s.Device}

	// Step 0: IR.88 transparency — the home operator itself declared
	// this subscription as M2M (checked at capture time against the
	// published IMSI ranges).
	if c.declared != nil && c.declared[s.Device] {
		r.Class, r.Evidence = ClassM2M, "ir88-declared"
		return r
	}

	// APN evidence first: the strongest signal.
	if c.Steps.ValidateAPNs && c.usesValidated(s, validated) {
		r.Class, r.Evidence = ClassM2M, "apn-validated"
		return r
	}
	if !c.Steps.ValidateAPNs {
		// Ablation: keywords-only, no population-level validation.
		for _, a := range s.APNs {
			if c.m2m.matches(a) {
				r.Class, r.Evidence = ClassM2M, "apn-keyword"
				return r
			}
		}
	}
	// Property closure: same device model as confirmed m2m devices.
	if c.Steps.PropertyClosure && s.TAC != 0 && m2mTACs[s.TAC] {
		r.Class, r.Evidence = ClassM2M, "property-closure"
		return r
	}

	// Phone classes: OS and GSMA label plus consumer APNs (§4.3).
	consumer := false
	for _, a := range s.APNs {
		if c.consumer.matches(a) {
			consumer = true
			break
		}
	}
	if s.InfoOK && s.Info.OS.IsSmartphoneOS() {
		if consumer || len(s.APNs) == 0 {
			r.Class, r.Evidence = ClassSmart, "smartphone-os"
			return r
		}
	}
	if s.InfoOK && s.Info.Type == gsma.TypeFeaturePhone {
		r.Class, r.Evidence = ClassFeat, "gsma-feature-phone"
		return r
	}
	if consumer {
		// Consumer APN without a smartphone OS: a feature phone.
		r.Class, r.Evidence = ClassFeat, "consumer-apn"
		return r
	}

	// Leftovers: not phone-like, but no APN evidence either — the
	// paper's m2m-maybe bucket.
	r.Class, r.Evidence = ClassM2MMaybe, "no-evidence"
	return r
}

// Breakdown counts results per class.
func Breakdown(results []Result) map[Class]int {
	out := map[Class]int{}
	for _, r := range results {
		out[r.Class]++
	}
	return out
}

// ValidatedAPNs exposes step 1 for inspection: the APN strings of the
// population that match the keyword table, sorted.
func (c *Classifier) ValidatedAPNs(sums []catalog.Summary) []apn.APN {
	set := c.validatedIn(sums)
	out := make([]apn.APN, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}
