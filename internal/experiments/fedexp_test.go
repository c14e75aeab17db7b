package experiments

import (
	"reflect"
	"testing"

	"whereroam/internal/core"
)

// One shared federation across the fed-* tests (the datasets dominate
// the runtime, exactly like the classic session share).
var fedSess = NewSessionWorkers(1, 0.12, 0)

func runFed(t testing.TB, id string) *Report {
	t.Helper()
	r, ok := ByID(id)
	if !ok {
		t.Fatalf("experiment %q not registered", id)
	}
	return r.Run(fedSess)
}

func TestFedSitesBreakdown(t *testing.T) {
	rep := runFed(t, "fed-sites")
	within(t, rep, "sites", 3, 3)
	// Every site must see a large slice of the shared fleet, and a
	// substantial part of the fleet must be visible at 2+ sites —
	// the paper's "many operators see the same fleets" observation.
	within(t, rep, "fleet_multisite_share", 0.3, 1.0)
	for _, host := range []string{"23410", "26201", "24001"} {
		within(t, rep, "site_"+host+"_fleet_coverage", 0.3, 1.0)
		// Inbound roamers dominate less than natives overall but must
		// be a large share at every site (Table 1's inbound columns).
		within(t, rep, "site_"+host+"_inbound_share", 0.25, 0.75)
	}
}

func TestFedAgreement(t *testing.T) {
	rep := runFed(t, "fed-agreement")
	// The label grammar invariant: every observing operator derives
	// exactly the label its geography implies, for every fleet device.
	within(t, rep, "label_consistency", 1.0, 1.0)
	// Classes rest on per-site evidence, so agreement is high but not
	// perfect.
	within(t, rep, "class_agreement_min", 0.75, 1.0)
	within(t, rep, "class_agreement_mean", 0.8, 1.0)
	// The presence schedule is mutually exclusive: no shared fleet
	// device may be active at two sites on the same day.
	within(t, rep, "presence_exclusivity", 1.0, 1.0)
}

// A device a site never observed has no class and no label there:
// fed-agreement and fed-validation skip on ok=false.
func TestSiteClassLabelUnknownDevice(t *testing.T) {
	for _, st := range fedSess.Sites() {
		// Summaries are device-sorted: one past the last is absent.
		sums := st.Summaries()
		absent := sums[len(sums)-1].Device + 1
		if c, ok := st.Class(absent); ok || c != 0 {
			t.Errorf("site %v: Class(absent) = %v, %v; want zero, false", st.Host(), c, ok)
		}
		if l, ok := st.Label(absent); ok || l != (core.Label{}) {
			t.Errorf("site %v: Label(absent) = %v, %v; want zero, false", st.Host(), l, ok)
		}
		// And a present one round-trips to its aligned result.
		res := st.pop.Results[0]
		if c, ok := st.Class(res.Device); !ok || c != res.Class {
			t.Errorf("site %v: Class(%v) = %v, %v; want %v, true", st.Host(), res.Device, c, ok, res.Class)
		}
	}
}

func TestFedSMIPPlane(t *testing.T) {
	rep := runFed(t, "fed-smip")
	within(t, rep, "smip_sites", 3, 3)
	// §4.4's provenance result must federate: at every site, all
	// roaming meters trace to the single NL home operator and the
	// two-vendor module pool.
	within(t, rep, "nl_home_share", 1.0, 1.0)
	within(t, rep, "vendor_count", 1, 2)
	// Meters are stationary, so the fleet partitions across sites.
	within(t, rep, "meter_single_site_share", 1.0, 1.0)
	for _, host := range []string{"23410", "26201", "24001"} {
		if rep.Value("site_"+host+"_roaming_meters") == 0 {
			t.Errorf("site %s deployed no fleet meters", host)
		}
	}
}

func TestFedM2MPlane(t *testing.T) {
	rep := runFed(t, "fed-m2m")
	if rep.Value("m2m_transactions") == 0 || rep.Value("m2m_devices") == 0 {
		t.Fatalf("fed-m2m plane is empty:\n%s", rep)
	}
	// Every non-cancel transaction must sit on the exact network the
	// shared schedule names for its day — the plane is a view of the
	// same fleet, not an independent draw.
	within(t, rep, "schedule_consistency", 1.0, 1.0)
	// The fleet is mostly deployed abroad, so the plane is
	// roaming-dominated (§3.2's ES profile).
	within(t, rep, "roaming_tx_share", 0.5, 1.0)
	// Schedule moves surface as switch chains.
	if rep.Value("switches_per_device") <= 0 {
		t.Error("no inter-site switches in the federated M2M plane")
	}
}

func TestFedValidation(t *testing.T) {
	rep := runFed(t, "fed-validation")
	if !has(rep, "federated_accuracy") || !has(rep, "union_m2m_recall") {
		t.Fatalf("fed-validation missing headline values:\n%s", rep)
	}
	within(t, rep, "federated_accuracy", 0.9, 1.0)
	within(t, rep, "mean_site_accuracy", 0.9, 1.0)
	// Evidence union can only extend the m2m set, so its recall
	// dominates the majority vote's by construction.
	if rep.Value("union_m2m_recall") < rep.Value("federated_m2m_recall") {
		t.Errorf("union recall %.4f below vote recall %.4f",
			rep.Value("union_m2m_recall"), rep.Value("federated_m2m_recall"))
	}
	if rep.Value("fleet_evaluated") == 0 {
		t.Error("no fleet devices were evaluated")
	}
}

// The fed-* runners must be bit-identical across worker counts.
func TestFedRunnersWorkerCountInvariant(t *testing.T) {
	serial := NewSessionWorkers(1, 0.06, 1)
	par := NewSessionWorkers(1, 0.06, 4)
	for _, id := range []string{"fed-sites", "fed-agreement", "fed-validation", "fed-smip", "fed-m2m"} {
		r, _ := ByID(id)
		a, b := r.Run(serial), r.Run(par)
		if !reflect.DeepEqual(a.Values, b.Values) {
			t.Errorf("%s: values differ between workers 1 and 4\nserial: %v\npar:    %v", id, a.Values, b.Values)
		}
	}
}

// The population sweeps (groupECDF behind fig7/fig8/fig10, t2's
// per-day label join, the fig5/fig6/fig9 crosstabs) are plain loops
// over a core.Derive population, so they must emit identical report
// values at any session worker count.
func TestRunnerAnalysesWorkerCountInvariant(t *testing.T) {
	serial := NewSessionWorkers(1, 0.08, 1)
	par := NewSessionWorkers(1, 0.08, 4)
	for _, id := range []string{"t2", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10"} {
		r, _ := ByID(id)
		a, b := r.Run(serial), r.Run(par)
		if !reflect.DeepEqual(a.Values, b.Values) {
			t.Errorf("%s: values differ between workers 1 and 4\nserial: %v\npar:    %v", id, a.Values, b.Values)
		}
	}
}
