package core

import (
	"fmt"
	"testing"

	"whereroam/internal/apn"
	"whereroam/internal/catalog"
	"whereroam/internal/devices"
	"whereroam/internal/gsma"
	"whereroam/internal/identity"
	"whereroam/internal/mccmnc"
)

var (
	host  = mccmnc.MustParse("23410")
	esOp  = mccmnc.MustParse("21407")
	nlOp  = mccmnc.MustParse("20404")
	gbEE  = mccmnc.MustParse("23430")
	frOp  = mccmnc.MustParse("20801")
	mvno1 = mccmnc.PLMN{MCC: 234, MNC: 26, MNCLen: 2}
	mvno2 = mccmnc.PLMN{MCC: 234, MNC: 38, MNCLen: 2}
)

func labeler() *Labeler { return NewLabeler(host, mvno1, mvno2) }

func TestLabelGrammar(t *testing.T) {
	lb := labeler()
	cases := []struct {
		sim, visited mccmnc.PLMN
		want         string
	}{
		{host, host, "H:H"},
		{mvno1, host, "V:H"},
		{gbEE, host, "N:H"},
		{nlOp, host, "I:H"},
		{host, frOp, "H:A"},
		{mvno2, esOp, "V:A"},
	}
	for _, c := range cases {
		if got := lb.Label(c.sim, c.visited).String(); got != c.want {
			t.Errorf("Label(%v,%v) = %s, want %s", c.sim, c.visited, got, c.want)
		}
	}
}

func TestLabelStringTable(t *testing.T) {
	labels := append([]Label{{SIMIntl, AttachAbroad}, {SIMOrigin('é'), AttachSide(0)}}, AllLabels...)
	for _, l := range labels {
		if got, want := l.String(), fmt.Sprintf("%c:%c", l.X, l.Y); got != want {
			t.Errorf("%v.String() = %q, want %q", []byte{byte(l.X), byte(l.Y)}, got, want)
		}
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = LabelIH.String() }); allocs != 0 {
		t.Errorf("%.1f allocations per String of a meaningful label, want 0", allocs)
	}
}

func TestLabelClosureProperty(t *testing.T) {
	// Property: every (sim, visited) pair yields one of the six
	// defined labels.
	lb := labeler()
	valid := map[Label]bool{}
	for _, l := range AllLabels {
		valid[l] = true
	}
	sims := []mccmnc.PLMN{host, mvno1, gbEE, nlOp, esOp, frOp}
	visits := []mccmnc.PLMN{host, gbEE, nlOp, esOp, frOp}
	for _, s := range sims {
		for _, v := range visits {
			l := lb.Label(s, v)
			// Observable captures are: anything attached in the
			// host's country, plus the host's own (and MVNO) SIMs
			// abroad via settlement records. N:A / I:A pairs never
			// reach the host's probes, so they are exempt.
			observable := l.Y == AttachHome || l.X == SIMHome || l.X == SIMVirtual
			if observable && !valid[l] {
				t.Errorf("Label(%v,%v) = %v not in the six defined labels", s, v, l)
			}
		}
	}
}

func TestLabelPredicates(t *testing.T) {
	if !LabelIH.InboundRoamer() || LabelHH.InboundRoamer() {
		t.Error("InboundRoamer wrong")
	}
	if !LabelHH.Native() || LabelVH.Native() {
		t.Error("Native wrong")
	}
}

func TestLabelRecordHomeWins(t *testing.T) {
	lb := labeler()
	r := catalog.DailyRecord{SIM: host}
	r.AddVisited(frOp)
	r.AddVisited(host)
	if got := lb.LabelRecord(&r); got != LabelHH {
		t.Errorf("label = %v, want H:H (home-side presence wins)", got)
	}
	r2 := catalog.DailyRecord{SIM: host}
	r2.AddVisited(frOp)
	if got := lb.LabelRecord(&r2); got != LabelHA {
		t.Errorf("label = %v, want H:A", got)
	}
	r3 := catalog.DailyRecord{SIM: nlOp}
	if got := lb.LabelRecord(&r3); got != LabelIH {
		t.Errorf("empty-visited label = %v, want I:H", got)
	}
}

func sum(id int, sim mccmnc.PLMN, tac identity.TAC, info gsma.DeviceInfo, infoOK bool, apns ...apn.APN) catalog.Summary {
	return catalog.Summary{
		Device: identity.DeviceID(id),
		SIM:    sim,
		TAC:    tac,
		Info:   info,
		InfoOK: infoOK,
		APNs:   apns,
	}
}

func TestClassifyByValidatedAPN(t *testing.T) {
	c := NewClassifier()
	meterAPN := apn.MustParse("smhp.centricaplc.com.mnc004.mcc204.gprs")
	sums := []catalog.Summary{
		sum(1, nlOp, 35600000, gsma.DeviceInfo{Type: gsma.TypeModule}, true, meterAPN),
	}
	res := c.ClassifyWorkers(sums, 0)
	if res[0].Class != ClassM2M || res[0].Evidence != "apn-validated" {
		t.Fatalf("result = %+v", res[0])
	}
	if got := c.ValidatedAPNs(sums); len(got) != 1 || got[0] != meterAPN {
		t.Errorf("validated APNs = %v", got)
	}
}

func TestClassifyPropertyClosure(t *testing.T) {
	c := NewClassifier()
	meterAPN := apn.MustParse("meter.rwe-npower.co.uk")
	modInfo := gsma.DeviceInfo{Type: gsma.TypeModule}
	sums := []catalog.Summary{
		// Device 1 uses a validated APN with TAC 123.
		sum(1, nlOp, 123, modInfo, true, meterAPN),
		// Device 2 shares the TAC but has no APN (voice-only): the
		// closure should still classify it m2m.
		sum(2, nlOp, 123, modInfo, true),
		// Device 3 has a different TAC and no APN: m2m-maybe.
		sum(3, nlOp, 456, modInfo, true),
	}
	res := c.ClassifyWorkers(sums, 0)
	if res[1].Class != ClassM2M || res[1].Evidence != "property-closure" {
		t.Errorf("closure result = %+v", res[1])
	}
	if res[2].Class != ClassM2MMaybe {
		t.Errorf("no-evidence result = %+v", res[2])
	}
}

func TestClassifySmartphone(t *testing.T) {
	c := NewClassifier()
	android := gsma.DeviceInfo{OS: gsma.OSAndroid, Type: gsma.TypeSmartphone}
	sums := []catalog.Summary{
		sum(1, host, 35200000, android, true, apn.MustParse("payandgo.telco.co.uk")),
		sum(2, host, 35200001, android, true), // voice-only smartphone
	}
	res := c.ClassifyWorkers(sums, 0)
	for i, r := range res {
		if r.Class != ClassSmart {
			t.Errorf("device %d = %+v, want smart", i+1, r)
		}
	}
}

func TestClassifyFeaturePhone(t *testing.T) {
	c := NewClassifier()
	feat := gsma.DeviceInfo{OS: gsma.OSProprietary, Type: gsma.TypeFeaturePhone}
	unknownInfo := gsma.DeviceInfo{}
	sums := []catalog.Summary{
		sum(1, host, 35400000, feat, true),
		// GSMA-unknown device with a consumer APN only: feat per §4.3.
		sum(2, host, 0, unknownInfo, false, apn.MustParse("wap.provider.net")),
	}
	res := c.ClassifyWorkers(sums, 0)
	if res[0].Class != ClassFeat || res[0].Evidence != "gsma-feature-phone" {
		t.Errorf("result = %+v", res[0])
	}
	if res[1].Class != ClassFeat || res[1].Evidence != "consumer-apn" {
		t.Errorf("result = %+v", res[1])
	}
}

func TestClassifySmartphoneWithM2MAPNIsM2M(t *testing.T) {
	// A smartphone-OS device on a validated M2M APN counts as m2m —
	// APN evidence outranks device properties (it may be a phone SoC
	// embedded in a vertical product).
	c := NewClassifier()
	android := gsma.DeviceInfo{OS: gsma.OSAndroid, Type: gsma.TypeSmartphone}
	sums := []catalog.Summary{
		sum(1, esOp, 35200000, android, true, apn.MustParse("telematics.scania.com")),
	}
	if res := c.ClassifyWorkers(sums, 0); res[0].Class != ClassM2M {
		t.Errorf("result = %+v", res[0])
	}
}

func TestClassifierStepsAblation(t *testing.T) {
	meterAPN := apn.MustParse("meter.rwe-npower.co.uk")
	modInfo := gsma.DeviceInfo{Type: gsma.TypeModule}
	sums := []catalog.Summary{
		sum(1, nlOp, 123, modInfo, true, meterAPN),
		sum(2, nlOp, 123, modInfo, true), // closure-only device
	}
	// Keywords only: no closure, device 2 unresolved.
	c := NewClassifier()
	c.Steps = Steps{ValidateAPNs: false, PropertyClosure: false}
	res := c.ClassifyWorkers(sums, 0)
	if res[0].Class != ClassM2M || res[0].Evidence != "apn-keyword" {
		t.Errorf("keyword-only result = %+v", res[0])
	}
	if res[1].Class != ClassM2MMaybe {
		t.Errorf("keyword-only closure device = %+v", res[1])
	}
	// Validation without closure.
	c.Steps = Steps{ValidateAPNs: true, PropertyClosure: false}
	res = c.ClassifyWorkers(sums, 0)
	if res[1].Class != ClassM2MMaybe {
		t.Errorf("no-closure device = %+v", res[1])
	}
}

func TestValidationErrsOnUnknownDevice(t *testing.T) {
	res := []Result{{Device: identity.DeviceID(99), Class: ClassSmart}}
	if _, err := Validate(res, map[identity.DeviceID]devices.Class{}); err == nil {
		t.Fatal("expected error for missing ground truth")
	}
}

func TestValidationMetricsArithmetic(t *testing.T) {
	v := &Validation{Confusion: map[Class]map[Class]int{
		ClassSmart: {ClassSmart: 90, ClassFeat: 5, ClassM2MMaybe: 5},
		ClassM2M:   {ClassM2M: 70, ClassSmart: 10, ClassM2MMaybe: 20},
	}, Total: 200}
	if p := v.Precision(ClassSmart); p != 0.9 {
		t.Errorf("smart precision = %f, want 0.9", p)
	}
	if r := v.Recall(ClassSmart); r != 0.9 {
		t.Errorf("smart recall = %f, want 0.9", r)
	}
	if a := v.Abstained(ClassM2M); a != 0.2 {
		t.Errorf("m2m abstained = %f, want 0.2", a)
	}
	// decided = 90+5+70+10 = 175, correct = 160.
	if acc := v.Accuracy(); acc < 0.914 || acc > 0.915 {
		t.Errorf("accuracy = %f", acc)
	}
}

// TestClassifyAllocationsPerWorker pins ClassifyWorkers' allocations
// to a bound that grows with neither the device count nor the worker
// count: the population steps build one set each, and the summaries
// draw their TACs and APNs from fixed pools, so every population holds
// the same distinct values.
func TestClassifyAllocationsPerWorker(t *testing.T) {
	apns := []apn.APN{
		apn.MustParse("internet"),
		apn.MustParse("meter.rwe-npower.co.uk"),
		apn.MustParse("smhp.centricaplc.com.mnc004.mcc204.gprs"),
		apn.MustParse("payandgo.o2.co.uk"),
	}
	c := NewClassifier()
	for _, n := range []int{300, 3000} {
		sums := make([]catalog.Summary, n)
		for i := range sums {
			sums[i] = catalog.Summary{
				Device: identity.DeviceID(i + 1),
				SIM:    nlOp,
				TAC:    identity.TAC(35600000 + i%20),
				APNs:   apns[i%len(apns) : i%len(apns)+1],
			}
		}
		allocs := testing.AllocsPerRun(20, func() { c.ClassifyWorkers(sums, 2) })
		if allocs > 64 {
			t.Errorf("%d devices: %.1f allocations per run, want at most 64", n, allocs)
		}
	}
}
