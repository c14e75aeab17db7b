package devices

import (
	"math"

	"whereroam/internal/apn"
	"whereroam/internal/mccmnc"
	"whereroam/internal/radio"
	"whereroam/internal/rng"
)

// Profile is the sampled per-device behaviour: when the device is
// present on the observed network, how much it signals, and what
// services it uses. Profiles are drawn once per device; day-to-day
// variation comes from the activity sampler in the dataset generator.
//
// Calibration targets are the paper's reported distributions; the
// comments on each constructor name the figure they serve.
type Profile struct {
	// Presence window within the observation period, in day indices
	// [PresenceStart, PresenceStart+PresenceDays).
	PresenceStart int
	PresenceDays  int
	// DailyActiveProb is the chance the device produces any traffic
	// on a day inside its window (roaming meters rotate across host
	// networks, so theirs is low — §7.1).
	DailyActiveProb float64
	// Diurnal scales activity by human waking hours.
	Diurnal bool

	// SignalingMu/Sigma parameterize the lognormal daily count of
	// radio resource management events.
	SignalingMu    float64
	SignalingSigma float64
	// FailProb is the per-procedure failure probability (devices are
	// heterogeneous: most never fail, a minority fails chronically).
	FailProb float64
	// SwitchVMNOPerDay is the expected visited-network switches per
	// day for inbound roamers (0 for native devices).
	SwitchVMNOPerDay float64

	// Service usage.
	UsesData  bool
	UsesVoice bool
	// DataRAT is the technology used for data; DataRAT2 is a
	// secondary technology for devices that split their data activity
	// (the 1/3 of native SMIP meters on both 2G and 3G — §7.1).
	DataRAT  radio.RAT
	DataRAT2 radio.RAT
	VoiceRAT radio.RAT
	// DataSessionsPerDay is the mean number of data sessions on an
	// active day (Poisson).
	DataSessionsPerDay float64
	// SessionBytesMu/Sigma parameterize lognormal bytes per session.
	SessionBytesMu    float64
	SessionBytesSigma float64
	// CallsPerDay is the mean voice events per active day (Poisson).
	CallsPerDay  float64
	CallDurMeanS float64
	// APN is the access point the device presents on data attach;
	// zero for devices that never use data (the paper's 21%-no-APN
	// population).
	APN apn.APN
}

// RATs returns the set of technologies the profile actually uses.
func (p Profile) RATs() radio.RATSet {
	var s radio.RATSet
	if p.UsesData {
		s = s.With(p.DataRAT)
		if p.DataRAT2 != radio.RATUnknown {
			s = s.With(p.DataRAT2)
		}
	}
	if p.UsesVoice {
		s = s.With(p.VoiceRAT)
	}
	return s
}

func ln(v float64) float64 { return math.Log(v) }

// stayWindow draws a presence window of roughly stayMedian days
// (lognormal) placed uniformly in the period.
func stayWindow(src *rng.Source, days int, stayMedian, sigma float64) (start, n int) {
	stay := int(math.Round(src.LogNormal(ln(stayMedian), sigma)))
	if stay < 1 {
		stay = 1
	}
	if stay > days {
		stay = days
	}
	start = 0
	if days > stay {
		start = src.Intn(days - stay + 1)
	}
	return start, stay
}

// SmartphoneProfile draws a person's smartphone.
//
// Calibration: Fig 7 (inbound smartphones median ~2 active days —
// tourists), Fig 9 (3G/4G usage), Fig 10 (high signaling, high data;
// inbound data suppressed by bill shock — §6.2).
func SmartphoneProfile(src *rng.Source, days int, inbound bool) Profile {
	p := Profile{
		Diurnal:         true,
		DailyActiveProb: 0.92,
		SignalingMu:     ln(150),
		SignalingSigma:  0.7,
		FailProb:        0.005,
		UsesData:        true,
		UsesVoice:       true,
		VoiceRAT:        radio.RAT3G,
		CallsPerDay:     3,
		CallDurMeanS:    110,
		APN:             ConsumerAPN(src),
	}
	if src.Bool(0.85) {
		p.DataRAT = radio.RAT4G
		p.DataRAT2 = radio.RAT3G
	} else {
		p.DataRAT = radio.RAT3G
	}
	p.PresenceStart, p.PresenceDays = 0, days
	p.DataSessionsPerDay = 20
	p.SessionBytesMu, p.SessionBytesSigma = ln(2_000_000), 1.2 // ~40 MB/day
	if inbound {
		p.PresenceStart, p.PresenceDays = stayWindow(src, days, 2, 0.9)
		p.DataSessionsPerDay = 10
		p.SessionBytesMu = ln(300_000) // ~3 MB/day: roaming data fear
		p.CallsPerDay = 1
		p.SwitchVMNOPerDay = 0.02
	}
	return p
}

// FeaturePhoneProfile draws a feature phone.
//
// Calibration: Fig 9 (50.9% 2G-only; 56.8% no data; only 7.3% no
// voice), Fig 10 (lowest signaling of all classes).
func FeaturePhoneProfile(src *rng.Source, days int, inbound bool) Profile {
	p := Profile{
		Diurnal:         true,
		DailyActiveProb: 0.9,
		SignalingMu:     ln(25),
		SignalingSigma:  0.6,
		FailProb:        0.005,
		UsesVoice:       !src.Bool(0.073),
		VoiceRAT:        radio.RAT2G,
		CallsPerDay:     4,
		CallDurMeanS:    90,
	}
	only2G := src.Bool(0.509)
	if !only2G {
		p.VoiceRAT = radio.RAT3G
	}
	if p.UsesVoice {
		// Condition the no-data probability on voice so the marginal
		// stays at the paper's 56.8% despite voiceless phones being
		// forced onto data (a phone with no services never shows up).
		p.UsesData = !src.Bool(0.568 / (1 - 0.073))
	} else {
		p.UsesData = true
	}
	if p.UsesData {
		if only2G {
			p.DataRAT = radio.RAT2G
		} else {
			p.DataRAT = radio.RAT3G
		}
		p.DataSessionsPerDay = 2
		p.SessionBytesMu, p.SessionBytesSigma = ln(50_000), 1.0
		p.APN = ConsumerAPN(src)
	}
	p.PresenceStart, p.PresenceDays = 0, days
	if inbound {
		p.PresenceStart, p.PresenceDays = stayWindow(src, days, 3, 0.9)
		p.SessionBytesMu = ln(20_000)
	}
	return p
}

// SMIPNativeAPN is the dedicated APN of the host MNO's own smart
// metering deployment (§4.4: dedicated IMSI range and GGSN).
var SMIPNativeAPN = apn.MustParse("smip.dcc-network.co.uk")

// SmartMeterNativeProfile draws a SMIP-native meter.
//
// Calibration: Fig 11 — long-lived attachment (73% active the whole
// period, 83% for the day-1 cohort), low signaling, 2/3 on 3G only
// and 1/3 on both 2G and 3G; ~10% of devices see a failure over the
// window.
func SmartMeterNativeProfile(src *rng.Source, days int, host mccmnc.PLMN) Profile {
	p := Profile{
		DailyActiveProb:    0.985,
		SignalingMu:        ln(6),
		SignalingSigma:     0.4,
		UsesData:           true,
		DataSessionsPerDay: 4,
		SessionBytesMu:     ln(8_000),
		SessionBytesSigma:  0.6,
		APN:                SMIPNativeAPN,
	}
	p.APN.Operator = host
	if src.Bool(2.0 / 3.0) {
		p.DataRAT = radio.RAT3G
	} else {
		p.DataRAT = radio.RAT3G
		p.DataRAT2 = radio.RAT2G
	}
	// Ongoing deployment: most meters are installed before the
	// window, the rest come online during it (§7.1). Within the
	// day-one cohort, 83% hold their attachment the whole period and
	// the rest lapse on some days — reproducing Fig 11a's 73% overall
	// / 83% day-one-cohort split.
	if src.Bool(0.88) {
		p.PresenceStart, p.PresenceDays = 0, days
	} else {
		p.PresenceStart = src.Intn(days)
		p.PresenceDays = days - p.PresenceStart
	}
	if src.Bool(0.83) {
		p.DailyActiveProb = 0.9995
	} else {
		p.DailyActiveProb = 0.93
	}
	// Failure heterogeneity: ~10% of devices fail occasionally.
	if src.Bool(0.10) {
		p.FailProb = 0.05
	}
	return p
}

// energyHomeNL is the single NL operator provisioning every roaming
// smart meter the paper finds (§4.4).
var energyHomeNL = mccmnc.MustParse("20404")

// SmartMeterRoamingProfile draws a roaming smart meter on a global
// IoT SIM.
//
// Calibration: Fig 11 — ~50% active ≤5 days of 26 (they rotate over
// host networks), ~10× the native signaling rate, 35% of devices with
// failures, 2G only.
func SmartMeterRoamingProfile(src *rng.Source, days int) Profile {
	p := Profile{
		PresenceStart:      0,
		PresenceDays:       days,
		DailyActiveProb:    0.21,
		SignalingMu:        ln(60),
		SignalingSigma:     0.6,
		SwitchVMNOPerDay:   0.5,
		UsesData:           true,
		DataRAT:            radio.RAT2G,
		DataSessionsPerDay: 2,
		SessionBytesMu:     ln(4_000),
		SessionBytesSigma:  0.6,
		APN:                pickAPN(src, energyAPNs, energyHomeNL),
	}
	if src.Bool(0.35) {
		p.FailProb = 0.12
	}
	return p
}

// NBIoTMeterProfile draws a roaming smart meter migrated to NB-IoT —
// the §8 future: LPWA radio with power-save sleep cycles, so the
// device attaches rarely and holds its registration instead of
// rotating across host networks, and its RAT alone identifies it as a
// "thing" to the visited operator.
func NBIoTMeterProfile(src *rng.Source, days int) Profile {
	p := Profile{
		PresenceStart:      0,
		PresenceDays:       days,
		DailyActiveProb:    0.95,
		SignalingMu:        ln(2.5),
		SignalingSigma:     0.4,
		SwitchVMNOPerDay:   0,
		UsesData:           true,
		DataRAT:            radio.RATNB,
		DataSessionsPerDay: 2,
		SessionBytesMu:     ln(1_200),
		SessionBytesSigma:  0.5,
		APN:                pickAPN(src, energyAPNs, energyHomeNL),
	}
	if src.Bool(0.05) {
		p.FailProb = 0.03
	}
	return p
}

// ConnectedCarProfile draws a connected car on a global IoT SIM
// (homed in DE, matching §3.2's high-mobility HMNO).
//
// Calibration: Fig 12 — smartphone-like signaling and data, high
// mobility; multi-RAT.
func ConnectedCarProfile(src *rng.Source, days int) Profile {
	p := Profile{
		PresenceStart:      0,
		PresenceDays:       days,
		DailyActiveProb:    0.7,
		Diurnal:            true,
		SignalingMu:        ln(180),
		SignalingSigma:     0.8,
		FailProb:           0.01,
		SwitchVMNOPerDay:   0.15,
		UsesData:           true,
		DataSessionsPerDay: 30,
		SessionBytesMu:     ln(80_000),
		SessionBytesSigma:  1.0,
		APN:                pickAPN(src, automotiveAPNs, mccmnc.MustParse("26201")),
	}
	if src.Bool(0.6) {
		p.DataRAT = radio.RAT4G
		p.DataRAT2 = radio.RAT3G
	} else {
		p.DataRAT = radio.RAT3G
	}
	// A minority carries eCall-style voice.
	if src.Bool(0.2) {
		p.UsesVoice = true
		p.VoiceRAT = radio.RAT2G
		p.CallsPerDay = 0.05
		p.CallDurMeanS = 60
	}
	return p
}

// WearableProfile draws a SIM-enabled wearable (inbound roaming via a
// platform SIM or native). A quarter are SMS-only companion watches:
// voice-domain traffic only, no APN ever.
func WearableProfile(src *rng.Source, days int, home mccmnc.PLMN) Profile {
	p := Profile{
		PresenceStart:   0,
		PresenceDays:    days,
		DailyActiveProb: 0.6,
		Diurnal:         true,
		SignalingMu:     ln(40),
		SignalingSigma:  0.7,
		FailProb:        0.01,
	}
	if src.Bool(0.25) {
		p.UsesVoice = true
		p.VoiceRAT = radio.RAT2G
		p.CallsPerDay = 3
		p.CallDurMeanS = 10
		return p
	}
	p.UsesData = true
	p.DataRAT = radio.RAT4G
	p.DataSessionsPerDay = 8
	p.SessionBytesMu, p.SessionBytesSigma = ln(60_000), 0.9
	p.APN = pickAPN(src, wearableAPNs, home)
	if src.Bool(0.3) {
		p.UsesVoice = true
		p.VoiceRAT = radio.RAT3G
		p.CallsPerDay = 0.3
		p.CallDurMeanS = 70
	}
	return p
}

// POSTerminalProfile draws a payment terminal: stationary, bursty
// small transactions, reliability-sensitive (§2.2 mentions payment
// services selecting alternative networks on failure). A meaningful
// minority are legacy circuit-switched dial terminals: they produce
// voice-domain records and never present an APN — part of the
// paper's 24.5% no-data m2m population.
func POSTerminalProfile(src *rng.Source, days int, home mccmnc.PLMN) Profile {
	p := Profile{
		PresenceStart:    0,
		PresenceDays:     days,
		DailyActiveProb:  0.9,
		Diurnal:          true,
		SignalingMu:      ln(30),
		SignalingSigma:   0.5,
		FailProb:         0.005,
		SwitchVMNOPerDay: 0.05,
	}
	if src.Bool(0.30) {
		// Legacy CSD dial-up terminal.
		p.UsesVoice = true
		p.VoiceRAT = radio.RAT2G
		p.CallsPerDay = 12
		p.CallDurMeanS = 15
		return p
	}
	p.UsesData = true
	p.DataRAT = radio.RAT2G
	p.DataSessionsPerDay = 15
	p.SessionBytesMu, p.SessionBytesSigma = ln(3_000), 0.5
	p.APN = pickAPN(src, posAPNs, home)
	return p
}

// AssetTrackerProfile draws a logistics tracker: mobile, periodic
// position reports, voice-only variants exist (the paper's 24.5%
// no-data m2m population includes security/elevator-style devices —
// modelled here as SMS-over-CS reporters with no APN).
func AssetTrackerProfile(src *rng.Source, days int, home mccmnc.PLMN) Profile {
	p := Profile{
		PresenceStart:    0,
		PresenceDays:     days,
		DailyActiveProb:  0.75,
		SignalingMu:      ln(80),
		SignalingSigma:   0.8,
		FailProb:         0.02,
		SwitchVMNOPerDay: 0.3,
		DataRAT:          radio.RAT2G,
	}
	if src.Bool(0.7) {
		p.UsesData = true
		p.DataSessionsPerDay = 6
		p.SessionBytesMu, p.SessionBytesSigma = ln(2_000), 0.6
		p.APN = pickAPN(src, trackerAPNs, home)
	} else {
		// Voice-only (SMS-style CS reporting): no APN ever appears,
		// feeding the paper's m2m-maybe ambiguity.
		p.UsesVoice = true
		p.VoiceRAT = radio.RAT2G
		p.CallsPerDay = 2
		p.CallDurMeanS = 8
	}
	return p
}

// PlatformProfile is the behaviour of a device on the §3 M2M platform
// (signaling-plane only: the platform dataset has no data plane).
type PlatformProfile struct {
	// Roaming marks devices operating outside the SIM's home country.
	Roaming bool
	// FailOnly marks the 40% of devices whose procedures never
	// succeed against 4G (§3.3).
	FailOnly bool
	// TotalSignaling is the device's transaction count across the
	// whole 11-day window (heavy-tailed: mean ≈267, p97 < 2000,
	// max ≈130k at full scale).
	TotalSignaling int
	// NumVMNOs is how many distinct visited networks the device uses
	// (65% one, >25% two, 5% three+; failed-only devices attempt up
	// to 19 — §3.3).
	NumVMNOs int
	// SwitchesTotal is the number of inter-VMNO switches across the
	// window (50% ≤2 total; 20% ≥1/day; ~3% in the hundreds).
	SwitchesTotal int
}

// numVMNOsPick draws a roaming platform device's VMNO count minus one
// (1 to 5 VMNOs), unless it is a fail-only coverage hunter.
var numVMNOsPick = rng.NewWeighted([]float64{0.65, 0.27, 0.05, 0.02, 0.01})

// NewPlatformIoT draws a platform device's behaviour. days is the
// observation window (11 in the paper).
func NewPlatformIoT(src *rng.Source, roaming bool, days int) PlatformProfile {
	p := PlatformProfile{
		Roaming:  roaming,
		FailOnly: src.Bool(0.40),
	}
	// Signaling volume: lognormal body with a Pareto tail splice.
	// Roaming devices generate ~10x the native median (§3.2).
	mu := ln(15.0)
	if roaming {
		mu = ln(150.0)
	}
	v := src.LogNormal(mu, 1.3)
	if roaming && src.Bool(0.005) {
		// Flooders: the roaming coverage-hunters behind the paper's
		// 130k-message tail. Native devices sit on one stable network
		// and have no reason to storm the signaling plane.
		v = src.Pareto(2000, 0.9)
	}
	p.TotalSignaling = 1 + int(v)
	if max := 140000; p.TotalSignaling > max {
		p.TotalSignaling = max
	}

	if !roaming {
		p.NumVMNOs = 1
		return p
	}
	switch {
	case p.FailOnly && src.Bool(0.10):
		// Desperate coverage hunters: many attempted VMNOs.
		p.NumVMNOs = 4 + src.Intn(16) // up to 19
	default:
		p.NumVMNOs = 1 + numVMNOsPick.DrawFrom(src)
	}
	if p.NumVMNOs >= 2 {
		switch {
		case src.Bool(0.50):
			p.SwitchesTotal = 1 + src.Intn(2) // <= 2 switches
		case src.Bool(0.6):
			p.SwitchesTotal = 3 + src.Intn(8) // occasional
		case src.Bool(0.85):
			p.SwitchesTotal = days + src.Intn(8*days) // >= 1/day
		default:
			// Pathological flappers: 100..3000 switches.
			p.SwitchesTotal = 100 + int(src.Pareto(100, 1.2))
			if p.SwitchesTotal > 3000 {
				p.SwitchesTotal = 3000
			}
		}
		if p.SwitchesTotal < p.NumVMNOs-1 {
			p.SwitchesTotal = p.NumVMNOs - 1
		}
	}
	return p
}
