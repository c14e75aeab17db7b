package devices

import (
	"math"
	"sort"
	"testing"

	"whereroam/internal/gsma"
	"whereroam/internal/identity"
	"whereroam/internal/mccmnc"
	"whereroam/internal/mobility"
	"whereroam/internal/radio"
	"whereroam/internal/rng"
)

const windowDays = 22

func TestClassIsM2M(t *testing.T) {
	if ClassSmartphone.IsM2M() || ClassFeaturePhone.IsM2M() {
		t.Error("phones are not m2m")
	}
	for _, c := range []Class{ClassSmartMeter, ClassConnectedCar, ClassWearable, ClassPOSTerminal, ClassAssetTracker} {
		if !c.IsM2M() {
			t.Errorf("%v should be m2m", c)
		}
	}
}

func TestAssembleAndValidate(t *testing.T) {
	src := rng.New(1)
	db := gsma.Synthesize(1)
	imsi := identity.IMSI{PLMN: mccmnc.MustParse("20404"), MSIN: 3_000_000_000}
	info := db.PickFromVendors(src, gsma.ArchM2MModule, "Gemalto", "Telit")
	prof := SmartMeterRoamingProfile(src, windowDays)
	mob := mobility.NewStationary(src, hostCentre(t), 50)
	d := Assemble(ClassSmartMeter, imsi, info, prof, &mob, false)
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if d.Home != imsi.PLMN {
		t.Errorf("Home = %v, want the IMSI's PLMN", d.Home)
	}
	// Corrupt it and confirm Validate notices.
	d.IMEI.TAC++
	if d.Validate() == nil {
		t.Error("Validate should catch TAC mismatch")
	}
}

func hostCentre(t *testing.T) (p struct{ Lat, Lon float64 }) {
	t.Helper()
	c, ok := mccmnc.CountryByISO("GB")
	if !ok {
		t.Fatal("GB missing")
	}
	p.Lat, p.Lon = c.Lat, c.Lon
	return p
}

func medianActiveDays(t *testing.T, mk func(src *rng.Source) Profile, n int) float64 {
	t.Helper()
	src := rng.New(99)
	days := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		p := mk(src.SplitN("dev", uint64(i)))
		active := 0
		dsrc := src.SplitN("act", uint64(i))
		for d := p.PresenceStart; d < p.PresenceStart+p.PresenceDays; d++ {
			if dsrc.Bool(p.DailyActiveProb) {
				active++
			}
		}
		days = append(days, float64(active))
	}
	sort.Float64s(days)
	return days[len(days)/2]
}

func TestInboundSmartphoneStaysBrief(t *testing.T) {
	// Fig 7: inbound-roaming smartphones are active ~2 days median.
	med := medianActiveDays(t, func(s *rng.Source) Profile {
		return SmartphoneProfile(s, windowDays, true)
	}, 3000)
	if med < 1 || med > 4 {
		t.Errorf("inbound smartphone median active days = %v, want ~2", med)
	}
}

func TestNativeSmartphoneStaysLong(t *testing.T) {
	med := medianActiveDays(t, func(s *rng.Source) Profile {
		return SmartphoneProfile(s, windowDays, false)
	}, 1000)
	if med < 18 {
		t.Errorf("native smartphone median active days = %v, want ~20", med)
	}
}

func TestRoamingMeterIntermittent(t *testing.T) {
	// Fig 11: ~50% of roaming SMIP meters are active <= 5 days of 26.
	med := medianActiveDays(t, func(s *rng.Source) Profile {
		return SmartMeterRoamingProfile(s, 26)
	}, 3000)
	if med < 3 || med > 7 {
		t.Errorf("roaming meter median active days = %v, want ~5", med)
	}
}

func TestNativeMeterPersistent(t *testing.T) {
	src := rng.New(5)
	host := mccmnc.MustParse("23410")
	fullPeriod := 0
	const n = 2000
	for i := 0; i < n; i++ {
		p := SmartMeterNativeProfile(src.SplitN("m", uint64(i)), 26, host)
		if p.PresenceStart == 0 && p.PresenceDays == 26 {
			fullPeriod++
		}
		if p.PresenceStart != 0 && p.PresenceStart+p.PresenceDays != 26 {
			t.Fatal("staggered meters must run to the window end")
		}
	}
	frac := float64(fullPeriod) / n
	// 88% full presence × 83% always-on activity reproduces the 73%
	// whole-period share of Fig 11a.
	if math.Abs(frac-0.88) > 0.04 {
		t.Errorf("full-presence native meters = %.3f, want ~0.88", frac)
	}
}

func TestRoamingMeterSignalsTenfold(t *testing.T) {
	// Fig 11b: roaming meters generate ~10x the signaling of native.
	src := rng.New(6)
	host := mccmnc.MustParse("23410")
	meanDaily := func(mk func(s *rng.Source) Profile) float64 {
		sum := 0.0
		const n = 2000
		for i := 0; i < n; i++ {
			p := mk(src.SplitN("x", uint64(i)))
			sum += math.Exp(p.SignalingMu + p.SignalingSigma*p.SignalingSigma/2)
		}
		return sum / n
	}
	native := meanDaily(func(s *rng.Source) Profile { return SmartMeterNativeProfile(s, 26, host) })
	roaming := meanDaily(func(s *rng.Source) Profile { return SmartMeterRoamingProfile(s, 26) })
	ratio := roaming / native
	if ratio < 6 || ratio > 15 {
		t.Errorf("roaming/native signaling ratio = %.1f, want ~10", ratio)
	}
}

func TestRoamingMeterIs2GOnly(t *testing.T) {
	src := rng.New(7)
	for i := 0; i < 500; i++ {
		p := SmartMeterRoamingProfile(src.SplitN("m", uint64(i)), 26)
		if !p.RATs().Only(radio.RAT2G) {
			t.Fatalf("roaming meter uses %v, want 2G only", p.RATs())
		}
		if p.APN.Operator != mccmnc.MustParse("20404") {
			t.Fatalf("roaming meter APN homed at %v, want Vodafone NL", p.APN.Operator)
		}
	}
}

func TestNativeMeterRATSplit(t *testing.T) {
	// §7.1: native SMIP support 2G+3G; 2/3 use only 3G.
	src := rng.New(8)
	host := mccmnc.MustParse("23410")
	only3G, both := 0, 0
	const n = 3000
	for i := 0; i < n; i++ {
		p := SmartMeterNativeProfile(src.SplitN("m", uint64(i)), 26, host)
		switch {
		case p.RATs().Only(radio.RAT3G):
			only3G++
		case p.RATs().Has(radio.RAT2G) && p.RATs().Has(radio.RAT3G):
			both++
		default:
			t.Fatalf("native meter with unexpected RATs %v", p.RATs())
		}
	}
	if f := float64(only3G) / n; math.Abs(f-2.0/3.0) > 0.04 {
		t.Errorf("3G-only native meters = %.3f, want ~0.67", f)
	}
}

func TestMeterFailureHeterogeneity(t *testing.T) {
	// §7.1: ~10% of all SMIP devices see failures; ~35% of roaming.
	src := rng.New(9)
	host := mccmnc.MustParse("23410")
	nFail := 0
	const n = 4000
	for i := 0; i < n; i++ {
		if SmartMeterNativeProfile(src.SplitN("a", uint64(i)), 26, host).FailProb > 0 {
			nFail++
		}
	}
	if f := float64(nFail) / n; math.Abs(f-0.10) > 0.02 {
		t.Errorf("failing native meters = %.3f, want ~0.10", f)
	}
	nFail = 0
	for i := 0; i < n; i++ {
		if SmartMeterRoamingProfile(src.SplitN("b", uint64(i)), 26).FailProb > 0 {
			nFail++
		}
	}
	if f := float64(nFail) / n; math.Abs(f-0.35) > 0.03 {
		t.Errorf("failing roaming meters = %.3f, want ~0.35", f)
	}
}

func TestFeaturePhoneServiceMix(t *testing.T) {
	// Fig 9: 56.8% of feature phones produce no data; only 7.3% no
	// voice.
	src := rng.New(10)
	noData, noVoice := 0, 0
	const n = 5000
	for i := 0; i < n; i++ {
		p := FeaturePhoneProfile(src.SplitN("f", uint64(i)), windowDays, false)
		if !p.UsesData {
			noData++
		}
		if !p.UsesVoice {
			noVoice++
		}
		if !p.UsesData && !p.UsesVoice {
			t.Fatal("feature phone with no services at all")
		}
	}
	if f := float64(noData) / n; math.Abs(f-0.568) > 0.03 {
		t.Errorf("no-data feature phones = %.3f, want ~0.568", f)
	}
	if f := float64(noVoice) / n; f > 0.09 {
		t.Errorf("no-voice feature phones = %.3f, want ~0.073", f)
	}
}

func TestTrackerVoiceOnlyVariant(t *testing.T) {
	// The voice-only m2m population (no APN ever) must exist: it
	// feeds the paper's m2m-maybe ambiguity.
	src := rng.New(11)
	home := mccmnc.MustParse("21407")
	voiceOnly := 0
	const n = 2000
	for i := 0; i < n; i++ {
		p := AssetTrackerProfile(src.SplitN("t", uint64(i)), windowDays, home)
		if !p.UsesData {
			voiceOnly++
			if !p.APN.IsZero() {
				t.Fatal("voice-only tracker must have no APN")
			}
		}
	}
	if f := float64(voiceOnly) / n; math.Abs(f-0.3) > 0.04 {
		t.Errorf("voice-only trackers = %.3f, want ~0.3", f)
	}
}

func TestProfilesSignalingOrdering(t *testing.T) {
	// Fig 10-left: feature phones < m2m meters < smartphones; cars are
	// smartphone-like (Fig 12).
	src := rng.New(12)
	host := mccmnc.MustParse("23410")
	mean := func(p Profile) float64 {
		return math.Exp(p.SignalingMu + p.SignalingSigma*p.SignalingSigma/2)
	}
	feat := mean(FeaturePhoneProfile(src.Split("f"), windowDays, false))
	meter := mean(SmartMeterNativeProfile(src.Split("m"), windowDays, host))
	smart := mean(SmartphoneProfile(src.Split("s"), windowDays, false))
	car := mean(ConnectedCarProfile(src.Split("c"), windowDays))
	if !(meter < feat && feat < smart) {
		t.Errorf("ordering broken: meter=%.0f feat=%.0f smart=%.0f", meter, feat, smart)
	}
	if car < smart*0.5 {
		t.Errorf("car signaling %.0f should be smartphone-like (%.0f)", car, smart)
	}
}

func TestPlatformIoTDistributions(t *testing.T) {
	src := rng.New(13)
	const n = 12000
	const days = 11
	var (
		totalSig  float64
		under2000 int
		failOnly  int
		oneVMNO   int
		twoVMNO   int
		threePlus int
		roamers   int
		maxVMNO   int
	)
	for i := 0; i < n; i++ {
		p := NewPlatformIoT(src.SplitN("iot", uint64(i)), true, days)
		roamers++
		totalSig += float64(p.TotalSignaling)
		if p.TotalSignaling < 2000 {
			under2000++
		}
		if p.FailOnly {
			failOnly++
		}
		switch {
		case p.NumVMNOs == 1:
			oneVMNO++
		case p.NumVMNOs == 2:
			twoVMNO++
		default:
			threePlus++
		}
		if p.NumVMNOs > maxVMNO {
			maxVMNO = p.NumVMNOs
		}
		if p.NumVMNOs >= 2 && p.SwitchesTotal < p.NumVMNOs-1 {
			t.Fatalf("device with %d VMNOs but %d switches", p.NumVMNOs, p.SwitchesTotal)
		}
	}
	// §3.3 calibration points (generous tolerances; it's a simulator).
	if mean := totalSig / float64(n); mean < 150 || mean > 700 {
		t.Errorf("mean signaling = %.0f, want a few hundred", mean)
	}
	if f := float64(under2000) / float64(n); f < 0.93 {
		t.Errorf("fraction under 2000 records = %.3f, want ~0.97", f)
	}
	if f := float64(failOnly) / float64(n); math.Abs(f-0.40) > 0.03 {
		t.Errorf("fail-only devices = %.3f, want ~0.40", f)
	}
	if f := float64(oneVMNO) / float64(roamers); math.Abs(f-0.62) > 0.08 {
		t.Errorf("single-VMNO roamers = %.3f, want ~0.63", f)
	}
	if f := float64(twoVMNO) / float64(roamers); f < 0.18 || f > 0.35 {
		t.Errorf("two-VMNO roamers = %.3f, want ~0.26", f)
	}
	if maxVMNO < 8 || maxVMNO > 19 {
		t.Errorf("max attempted VMNOs = %d, want up to 19", maxVMNO)
	}
}

func TestPlatformNativeSingleVMNO(t *testing.T) {
	src := rng.New(14)
	for i := 0; i < 200; i++ {
		p := NewPlatformIoT(src.SplitN("n", uint64(i)), false, 11)
		if p.NumVMNOs != 1 || p.SwitchesTotal != 0 {
			t.Fatalf("native device with %d VMNOs / %d switches", p.NumVMNOs, p.SwitchesTotal)
		}
	}
}

func TestProfileRATs(t *testing.T) {
	p := Profile{UsesData: true, DataRAT: radio.RAT3G, DataRAT2: radio.RAT2G, UsesVoice: true, VoiceRAT: radio.RAT2G}
	s := p.RATs()
	if !s.Has(radio.RAT2G) || !s.Has(radio.RAT3G) || s.Has(radio.RAT4G) {
		t.Errorf("RATs = %v", s)
	}
}
