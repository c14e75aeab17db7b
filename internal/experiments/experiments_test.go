package experiments

import (
	"math"
	"strings"
	"sync"
	"testing"
)

// One shared session across the test binary: experiments share the
// datasets the way cmd/roamrepro would.
var (
	sessOnce sync.Once
	sess     *Session
)

func session(t testing.TB) *Session {
	sessOnce.Do(func() {
		sess = NewSessionWorkers(1, 0.35, 0) // ~4.2k platform SIMs, ~10.5k MNO devices
	})
	return sess
}

func run(t testing.TB, id string) *Report {
	t.Helper()
	r, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	rep := r.Run(session(t))
	if rep.ID != id {
		t.Fatalf("report ID = %q, want %q", rep.ID, id)
	}
	return rep
}

// has reports whether the report carries a named value.
func has(rep *Report, key string) bool {
	_, ok := rep.Values[key]
	return ok
}

// within asserts a value sits inside [lo, hi].
func within(t *testing.T, rep *Report, key string, lo, hi float64) {
	t.Helper()
	if !has(rep, key) {
		t.Fatalf("%s: missing value %q\n%s", rep.ID, key, rep)
	}
	v := rep.Value(key)
	if v < lo || v > hi {
		t.Errorf("%s: %s = %.4f, want [%.3f, %.3f]", rep.ID, key, v, lo, hi)
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"t1", "fig2", "fig3l", "fig3c", "fig3r", "t2", "fig5", "fig6",
		"fig7", "fig8", "fig9", "fig10", "fig11", "fig12", "t3",
		"abl-classifier", "abl-gyration", "abl-policy",
		"ext-revenue", "ext-transparency", "ext-nbiot", "ext-latency",
		"fed-sites", "fed-agreement", "fed-validation"}
	have := map[string]bool{}
	for _, r := range All() {
		have[r.ID] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %q missing from registry", id)
		}
	}
	if _, ok := ByID("nope"); ok {
		t.Error("ByID should fail for unknown ids")
	}
}

func TestT1HMNOShares(t *testing.T) {
	rep := run(t, "t1")
	within(t, rep, "ES_share", 0.48, 0.57)                  // paper: 52.3%
	within(t, rep, "MX_share", 0.38, 0.47)                  // paper: 42.2%
	within(t, rep, "AR_share", 0.02, 0.08)                  // paper: 4.7%
	within(t, rep, "ES_signaling_share", 0.70, 0.92)        // paper: 81.8%
	within(t, rep, "es_roaming_signaling_share", 0.85, 1.0) // paper: 92%
	// ES coverage: dozens of countries; far beyond any other HMNO.
	within(t, rep, "ES_countries", 40, 85) // paper: 77
	within(t, rep, "MX_countries", 2, 8)   // paper: 7
	if rep.Value("ES_vmnos") <= rep.Value("MX_vmnos") {
		t.Errorf("ES VMNO count %.0f should exceed MX %.0f",
			rep.Value("ES_vmnos"), rep.Value("MX_vmnos"))
	}
}

func TestFig2VisitedCountries(t *testing.T) {
	rep := run(t, "fig2")
	within(t, rep, "mx_home_share", 0.80, 1.0) // paper: ~90% at home
	within(t, rep, "ar_home_share", 0.85, 1.0)
	within(t, rep, "ES_visited_countries", 25, 85)
	if rep.Value("ES_visited_countries") <= rep.Value("MX_visited_countries") {
		t.Error("ES must roam into more countries than MX")
	}
}

func TestFig3LeftSignalingCDF(t *testing.T) {
	rep := run(t, "fig3l")
	within(t, rep, "mean_records", 100, 800)      // paper: 267
	within(t, rep, "p_under_2000", 0.90, 1.0)     // paper: 97%
	within(t, rep, "roaming_native_ratio", 4, 25) // paper: ~10x
	// The long tail must exist: max far beyond the mean.
	if rep.Value("max_records") < 20*rep.Value("mean_records") {
		t.Errorf("tail too short: max %.0f vs mean %.0f",
			rep.Value("max_records"), rep.Value("mean_records"))
	}
	// §3.3: ~60% of devices have at least one successful procedure.
	within(t, rep, "ok_device_share", 0.50, 0.70)
}

func TestFig3CenterVMNOCounts(t *testing.T) {
	rep := run(t, "fig3c")
	within(t, rep, "share_1", 0.53, 0.72)     // paper: 65%
	within(t, rep, "share_2", 0.15, 0.35)     // paper: >25%
	within(t, rep, "share_3plus", 0.02, 0.15) // paper: ~5%
	within(t, rep, "max_vmnos", 8, 19)        // paper: up to 19
}

func TestFig3RightSwitches(t *testing.T) {
	rep := run(t, "fig3r")
	within(t, rep, "share_le2", 0.35, 0.65)        // paper: ~50%
	within(t, rep, "share_daily_plus", 0.10, 0.35) // paper: ~20%
	within(t, rep, "share_100plus", 0.005, 0.08)   // paper: ~3%
	within(t, rep, "max_switches", 100, 3000)
}

func TestT2PopulationBreakdown(t *testing.T) {
	rep := run(t, "t2")
	within(t, rep, "label_H:H", 0.35, 0.60) // paper: ~48%/day
	within(t, rep, "label_V:H", 0.22, 0.45) // paper: ~33%/day
	within(t, rep, "label_I:H", 0.08, 0.28) // paper: ~18%/day
	within(t, rep, "class_smart", 0.55, 0.70)
	within(t, rep, "class_feat", 0.04, 0.12)
	within(t, rep, "class_m2m", 0.20, 0.33)
	within(t, rep, "class_m2m-maybe", 0.0, 0.09)
	within(t, rep, "classifier_accuracy", 0.93, 1.0)
	// Ordering: H:H > V:H > I:H, the paper's ranking.
	if !(rep.Value("label_H:H") > rep.Value("label_V:H") &&
		rep.Value("label_V:H") > rep.Value("label_I:H")) {
		t.Errorf("label ordering broken: %v", rep.Values)
	}
}

func TestFig5HomeCountries(t *testing.T) {
	rep := run(t, "fig5")
	within(t, rep, "top3_share", 0.50, 0.75)       // paper: ~60%
	within(t, rep, "top20_share", 0.90, 1.0)       // paper: >=93%
	within(t, rep, "m2m_top3_share", 0.72, 0.92)   // paper: 83%
	within(t, rep, "smart_top3_share", 0.08, 0.30) // paper: 17%
	within(t, rep, "feat_top3_share", 0.20, 0.55)  // paper: 35%
	// m2m concentration must exceed the people-device classes.
	if rep.Value("m2m_top3_share") <= rep.Value("smart_top3_share") {
		t.Error("m2m home countries must be more concentrated than smartphones")
	}
}

func TestFig6ClassVsLabel(t *testing.T) {
	rep := run(t, "fig6")
	within(t, rep, "ih_m2m_share", 0.55, 0.85)   // paper: 71.1%
	within(t, rep, "ih_smart_share", 0.12, 0.40) // paper: 27.1%
	within(t, rep, "m2m_ih_share", 0.62, 0.85)   // paper: 74.7%
	within(t, rep, "smart_ih_share", 0.06, 0.20) // paper: 12.1%
	within(t, rep, "feat_ih_share", 0.02, 0.15)  // paper: 6.4%
	// The headline: inbound roamers are mostly machines.
	if rep.Value("ih_m2m_share") <= rep.Value("ih_smart_share") {
		t.Error("I:H population must be m2m-dominated")
	}
}

func TestFig7ActiveDays(t *testing.T) {
	rep := run(t, "fig7")
	within(t, rep, "m2m/inbound_median", 5, 16)        // paper: 9
	within(t, rep, "smart/inbound_median", 1, 4)       // paper: 2
	within(t, rep, "inbound_m2m_smart_ratio", 2.5, 10) // paper: 4.5x
	// Native classes behave comparably (both long-lived).
	nm := rep.Value("m2m/native_median")
	ns := rep.Value("smart/native_median")
	if math.Abs(nm-ns) > 6 {
		t.Errorf("native medians diverge: m2m %.0f vs smart %.0f", nm, ns)
	}
}

func TestFig8Gyration(t *testing.T) {
	rep := run(t, "fig8")
	within(t, rep, "m2m/inbound_under_1km", 0.60, 0.95) // paper: ~80%
	// Meters sit still; smartphones move.
	if rep.Value("m2m/inbound_median_km") >= rep.Value("smart/inbound_median_km") {
		t.Error("inbound m2m should be more stationary than inbound smartphones")
	}
}

func TestFig9RATUsage(t *testing.T) {
	rep := run(t, "fig9")
	within(t, rep, "m2m_2g_only_conn", 0.55, 0.90)  // paper: 77.4%
	within(t, rep, "m2m_2g_only_data", 0.40, 0.75)  // paper: 56.7%
	within(t, rep, "m2m_no_data", 0.10, 0.35)       // paper: 24.5%
	within(t, rep, "m2m_no_voice", 0.55, 0.95)      // paper's m2m voice users are a minority in our vertical mix
	within(t, rep, "feat_2g_only_conn", 0.35, 0.65) // paper: 50.9%
	within(t, rep, "feat_no_data", 0.45, 0.70)      // paper: 56.8%
	within(t, rep, "feat_no_voice", 0.02, 0.15)     // paper: 7.3%
	within(t, rep, "smart_2g_only_conn", 0.0, 0.05) // smartphones are 3G/4G
}

func TestFig10Traffic(t *testing.T) {
	rep := run(t, "fig10")
	// Signaling ordering: m2m << smart; feat < smart.
	sm := rep.Value("smart/native_signaling_median")
	m2m := rep.Value("m2m/native_signaling_median")
	feat := rep.Value("feat/native_signaling_median")
	if !(m2m < sm && feat < sm) {
		t.Errorf("signaling ordering broken: m2m=%.0f feat=%.0f smart=%.0f", m2m, feat, sm)
	}
	// Most m2m devices never call.
	within(t, rep, "m2m_zero_call_share", 0.75, 1.0)
	// Bill shock: inbound smartphones move far less data than native.
	if rep.Value("smart/inbound_bytes_median") >= rep.Value("smart/native_bytes_median") {
		t.Error("inbound smartphone data should be below native (bill shock)")
	}
	// Inbound m2m data is tiny next to inbound smartphones.
	if rep.Value("m2m/inbound_bytes_median") >= rep.Value("smart/inbound_bytes_median") {
		t.Error("inbound m2m data should be below inbound smartphones")
	}
}

func TestFig11SMIP(t *testing.T) {
	rep := run(t, "fig11")
	within(t, rep, "native_full_period_share", 0.60, 0.85)      // paper: 73%
	within(t, rep, "native_day1_full_period_share", 0.72, 0.95) // paper: 83%
	within(t, rep, "roaming_le5_days_share", 0.35, 0.70)        // paper: ~50%
	within(t, rep, "signaling_ratio", 5, 16)                    // paper: ~10x
	within(t, rep, "roaming_fail_device_share", 0.25, 0.50)     // paper: 35%
	within(t, rep, "all_fail_device_share", 0.05, 0.30)         // paper: ~10% (of October registrants)
	within(t, rep, "roaming_only2g_share", 0.95, 1.0)           // paper: all 2G
	within(t, rep, "native_only3g_share", 0.55, 0.80)           // paper: 2/3
	// Day-1 cohort effect: restricting to day-1 devices raises the
	// full-period share (§7.1's deployment-in-progress signal).
	if rep.Value("native_day1_full_period_share") <= rep.Value("native_full_period_share") {
		t.Error("day-1 cohort must be more persistent than the full set")
	}
}

func TestFig12Verticals(t *testing.T) {
	rep := run(t, "fig12")
	// Cars ≈ smartphones; meters ≪ both, on every axis.
	carsG, metersG := rep.Value("cars_gyration_median"), rep.Value("meters_gyration_median")
	carsS, metersS := rep.Value("cars_signaling_median"), rep.Value("meters_signaling_median")
	carsB, metersB := rep.Value("cars_bytes_median"), rep.Value("meters_bytes_median")
	smartS := rep.Value("smartphones_signaling_median")
	if metersG >= carsG {
		t.Errorf("meter gyration %.2f should be below cars %.2f", metersG, carsG)
	}
	if metersS >= carsS {
		t.Errorf("meter signaling %.0f should be below cars %.0f", metersS, carsS)
	}
	if metersB >= carsB {
		t.Errorf("meter bytes %.0f should be below cars %.0f", metersB, carsB)
	}
	// Cars within the smartphone order of magnitude (Fig 12's "very
	// similar to normal inbound roaming smartphones").
	if carsS < smartS/4 || carsS > smartS*8 {
		t.Errorf("car signaling %.0f not smartphone-like (%.0f)", carsS, smartS)
	}
}

func TestT3SMIPProvenance(t *testing.T) {
	rep := run(t, "t3")
	if got := rep.Value("home_operators"); got != 1 {
		t.Errorf("home operators = %.0f, want exactly 1 (Vodafone NL)", got)
	}
	if got := rep.Value("vendors"); got != 2 {
		t.Errorf("vendors = %.0f, want exactly 2 (Gemalto, Telit)", got)
	}
	if rep.Value("detected_meters") < 100 {
		t.Errorf("detected meters = %.0f, want a large population", rep.Value("detected_meters"))
	}
}

func TestAblationClassifier(t *testing.T) {
	rep := run(t, "abl-classifier")
	ko := rep.Value("keywords-only_m2m_recall")
	va := rep.Value("validated-apns_m2m_recall")
	full := rep.Value("full-pipeline_m2m_recall")
	if !(ko <= va+1e-9 && va < full) {
		t.Errorf("recall must grow along the pipeline: %.3f -> %.3f -> %.3f", ko, va, full)
	}
	// §4.3: about a fifth of devices have no APN.
	within(t, rep, "no_apn_share", 0.08, 0.35)
}

func TestAblationGyration(t *testing.T) {
	rep := run(t, "abl-gyration")
	w := rep.Value("weighted_under_1km")
	u := rep.Value("unweighted_under_1km")
	if w < 0.97 {
		t.Errorf("weighted metric misreads stationary devices: %.3f under 1 km", w)
	}
	if u > w-0.2 {
		t.Errorf("unweighted metric should inflate mobility: %.3f vs %.3f", u, w)
	}
}

func TestAblationPolicy(t *testing.T) {
	rep := run(t, "abl-policy")
	// Strongest-first concentrates load; rotate/sticky spread it.
	strongest := rep.Value("strongest_top_share")
	sticky := rep.Value("sticky_top_share")
	if strongest <= sticky {
		t.Errorf("strongest policy should concentrate load: %.3f vs sticky %.3f", strongest, sticky)
	}
}

func TestReportRendering(t *testing.T) {
	rep := run(t, "t1")
	s := rep.String()
	for _, want := range []string{"t1", "HMNO", "paper:", "values:"} {
		if !strings.Contains(s, want) {
			t.Errorf("report rendering missing %q", want)
		}
	}
}

func TestAllRunnersProduceReports(t *testing.T) {
	for _, r := range All() {
		rep := r.Run(session(t))
		if rep == nil || len(rep.Values) == 0 {
			t.Errorf("runner %s produced an empty report", r.ID)
		}
		if len(rep.Tables) == 0 {
			t.Errorf("runner %s produced no tables", r.ID)
		}
	}
}
