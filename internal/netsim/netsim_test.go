package netsim

import (
	"reflect"
	"testing"
	"time"

	"whereroam/internal/identity"
	"whereroam/internal/mccmnc"
	"whereroam/internal/radio"
	"whereroam/internal/signaling"
)

func world(t testing.TB) *World {
	t.Helper()
	return NewWorld(DefaultConfig())
}

var (
	es = mccmnc.MustParse("21407")
	nl = mccmnc.MustParse("20404")
	uk = mccmnc.MustParse("23410")
	au = mccmnc.MustParse("50501")
)

func TestWorldDeterministic(t *testing.T) {
	a, b := world(t), world(t)
	for _, op := range mccmnc.AllOperators() {
		if a.hub[op.PLMN] != b.hub[op.PLMN] {
			t.Fatalf("hub membership of %v differs between identical worlds", op.PLMN)
		}
	}
	if len(a.bilateral) != len(b.bilateral) {
		t.Fatal("bilateral agreements differ")
	}
}

func TestDefaultWorldBuiltOnce(t *testing.T) {
	w := DefaultWorld()
	if DefaultWorld() != w {
		t.Fatal("DefaultWorld built a second world")
	}
	if !reflect.DeepEqual(w, world(t)) {
		t.Fatal("DefaultWorld differs from NewWorld(DefaultConfig())")
	}
}

func TestHubFootprintEuropeHeavy(t *testing.T) {
	w := world(t)
	share := func(r mccmnc.Region) float64 {
		n, members := 0, 0
		for _, op := range mccmnc.AllOperators() {
			c, _ := mccmnc.CountryByISO(op.ISO)
			if c.Region != r {
				continue
			}
			n++
			if w.hub[op.PLMN] {
				members++
			}
		}
		if n == 0 {
			return 0
		}
		return float64(members) / float64(n)
	}
	if eu := share(mccmnc.RegionEurope); eu < 0.85 {
		t.Errorf("European hub share = %.2f, want >= 0.85", eu)
	}
	if latam := share(mccmnc.RegionLatAm); latam < 0.75 {
		t.Errorf("LatAm hub share = %.2f, want >= 0.75", latam)
	}
}

func TestRoamingAllowedSelf(t *testing.T) {
	w := world(t)
	if !w.RoamingAllowed(es, es) {
		t.Error("home network must always admit its own SIMs")
	}
}

func TestRoamingViaHub(t *testing.T) {
	w := world(t)
	// ES (Movistar) roams widely: across all countries it should find
	// partners almost everywhere (the paper has ES devices in 77
	// countries).
	countries := 0
	seen := map[string]bool{"ES": true}
	for _, op := range mccmnc.AllOperators() {
		iso := mccmnc.ISOByMCC(op.PLMN.MCC)
		if seen[iso] {
			continue
		}
		seen[iso] = true
		if len(w.AppendPartners(nil, es, iso)) > 0 {
			countries++
		}
	}
	if countries < 70 {
		t.Errorf("ES SIM can roam in %d countries, want >= 70", countries)
	}
}

func TestPartnersExcludeHome(t *testing.T) {
	w := world(t)
	for _, p := range w.AppendPartners(nil, es, "ES") {
		if p == es {
			t.Fatal("AppendPartners must not include the home network itself")
		}
	}
}

// TestPartnersSortedByPLMN pins that byISO is in PLMN order by
// construction, for every country the registry knows.
func TestPartnersSortedByPLMN(t *testing.T) {
	w := world(t)
	for _, op := range mccmnc.AllOperators() {
		ps := w.AppendPartners(nil, es, op.ISO)
		for i := 1; i < len(ps); i++ {
			if a, b := ps[i-1], ps[i]; a.MCC > b.MCC || (a.MCC == b.MCC && a.MNC > b.MNC) {
				t.Fatalf("%s partners out of PLMN order: %v before %v", op.ISO, a, b)
			}
		}
	}
}

// TestAppendPartnersAllocatesNothing pins that AppendPartners reads
// the world in place: appending into a buffer with room allocates
// nothing.
func TestAppendPartnersAllocatesNothing(t *testing.T) {
	w := world(t)
	buf := make([]mccmnc.PLMN, 0, 64)
	allocs := testing.AllocsPerRun(100, func() {
		if len(w.AppendPartners(buf[:0], es, "FR")) == 0 {
			t.Fatal("an ES SIM has no partner in FR")
		}
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocations per run, want 0", allocs)
	}
}

func TestConfigFor(t *testing.T) {
	w := world(t)
	if got := w.ConfigFor(es, uk); got != ConfigHR {
		t.Errorf("ES->UK config = %v, want HR (European default)", got)
	}
	if got := w.ConfigFor(es, au); got != ConfigIHBO {
		t.Errorf("ES->AU config = %v, want IHBO (far destination)", got)
	}
	if got := w.ConfigFor(es, mccmnc.MustParse("21401")); got != ConfigLBO {
		t.Errorf("national roaming config = %v, want LBO", got)
	}
}

func TestAttachSequence(t *testing.T) {
	dev := identity.DeviceID(1)
	ts := time.Date(2018, 11, 19, 10, 0, 0, 0, time.UTC)
	txs := AppendAttachSequence(nil, dev, ts, es, uk, radio.RAT4G, signaling.ResultOK)
	if len(txs) != 2 {
		t.Fatalf("attach = %d transactions, want 2", len(txs))
	}
	if txs[0].Procedure != signaling.ProcAuthentication || txs[1].Procedure != signaling.ProcUpdateLocation {
		t.Errorf("procedures = %v, %v", txs[0].Procedure, txs[1].Procedure)
	}
	if !txs[1].Time.After(txs[0].Time) {
		t.Error("update location must follow authentication")
	}
	for _, tx := range txs {
		if !tx.Roaming() {
			t.Error("ES->UK attach should be roaming")
		}
	}
	// UnknownSubscription fails at authentication and stops there.
	failed := AppendAttachSequence(nil, dev, ts, es, uk, radio.RAT4G, signaling.ResultUnknownSubscription)
	if len(failed) != 1 || failed[0].Result != signaling.ResultUnknownSubscription {
		t.Errorf("unknown subscription sequence = %+v", failed)
	}
	// RoamingNotAllowed authenticates OK then fails the UL.
	rna := AppendAttachSequence(nil, dev, ts, es, uk, radio.RAT4G, signaling.ResultRoamingNotAllowed)
	if len(rna) != 2 || rna[0].Result != signaling.ResultOK || rna[1].Result != signaling.ResultRoamingNotAllowed {
		t.Errorf("roaming-not-allowed sequence = %+v", rna)
	}
}

func TestSwitchSequence(t *testing.T) {
	dev := identity.DeviceID(2)
	ts := time.Date(2018, 11, 20, 0, 0, 0, 0, time.UTC)
	old := uk
	new_ := mccmnc.MustParse("23415")
	txs := AppendSwitchSequence(nil, dev, ts, es, old, new_, radio.RAT4G, signaling.ResultOK)
	if len(txs) != 3 {
		t.Fatalf("switch = %d transactions, want 3", len(txs))
	}
	if txs[0].Procedure != signaling.ProcCancelLocation || txs[0].Visited != old {
		t.Errorf("first tx = %+v, want CancelLocation on old VMNO", txs[0])
	}
	if txs[2].Visited != new_ {
		t.Errorf("attach went to %v, want new VMNO", txs[2].Visited)
	}
	for i := 1; i < len(txs); i++ {
		if txs[i].Time.Before(txs[i-1].Time) {
			t.Fatal("switch transactions out of order")
		}
	}
}

// The Append forms extend dst in place: what was there stays, and a
// stack array with room for a switch sequence takes every sequence
// without a heap allocation.
func TestAppendSequencesExtendDst(t *testing.T) {
	dev := identity.DeviceID(3)
	ts := time.Date(2018, 11, 21, 6, 0, 0, 0, time.UTC)
	head := signaling.Transaction{Device: dev, Time: ts, SIM: es, Visited: uk, Procedure: signaling.ProcUpdateLocation}
	got := AppendAttachSequence([]signaling.Transaction{head}, dev, ts, es, uk, radio.RAT4G, signaling.ResultOK)
	if len(got) != 3 || got[0] != head || got[1].Procedure != signaling.ProcAuthentication {
		t.Fatalf("attach onto a one-element dst = %+v", got)
	}
	got = AppendSwitchSequence(got[:1], dev, ts, es, uk, mccmnc.MustParse("23415"), radio.RAT4G, signaling.ResultUnknownSubscription)
	if len(got) != 3 || got[0] != head || got[1].Procedure != signaling.ProcCancelLocation || got[2].Result != signaling.ResultUnknownSubscription {
		t.Fatalf("failed switch onto a one-element dst = %+v", got)
	}

	var n int
	allocs := testing.AllocsPerRun(100, func() {
		var seq [3]signaling.Transaction
		n = len(AppendSwitchSequence(seq[:0], dev, ts, es, uk, mccmnc.MustParse("23415"), radio.RAT4G, signaling.ResultOK))
		n += len(AppendAttachSequence(seq[:0], dev, ts, es, uk, radio.RAT4G, signaling.ResultOK))
	})
	if n != 5 || allocs != 0 {
		t.Fatalf("%d transactions with %.1f allocations per run into a stack array, want 5 and 0", n, allocs)
	}
}

func TestWorldString(t *testing.T) {
	s := world(t).String()
	if s == "" {
		t.Error("String should describe the world")
	}
}

func TestRoamingAllowedSymmetric(t *testing.T) {
	// Property: agreements are undirected — if A's SIMs may use B,
	// B's SIMs may use A (both the hub and bilateral mechanisms are
	// symmetric).
	w := world(t)
	ops := mccmnc.AllOperators()
	for i := 0; i < len(ops); i += 7 {
		for j := 0; j < len(ops); j += 11 {
			a, b := ops[i].PLMN, ops[j].PLMN
			if w.RoamingAllowed(a, b) != w.RoamingAllowed(b, a) {
				t.Fatalf("asymmetric agreement %v <-> %v", a, b)
			}
		}
	}
}

func TestConfigForSymmetricDistance(t *testing.T) {
	// The architecture choice keys on distance, which is symmetric;
	// HR vs IHBO must agree for swapped endpoints (LBO requires same
	// country and is trivially symmetric).
	w := world(t)
	pairs := [][2]mccmnc.PLMN{
		{es, au}, {es, uk}, {nl, au}, {uk, au},
	}
	for _, p := range pairs {
		if mccmnc.SameCountry(p[0], p[1]) {
			continue
		}
		if w.ConfigFor(p[0], p[1]) != w.ConfigFor(p[1], p[0]) {
			t.Errorf("asymmetric config for %v <-> %v", p[0], p[1])
		}
	}
}

func BenchmarkNewWorld(b *testing.B) {
	cfg := DefaultConfig()
	for i := 0; i < b.N; i++ {
		_ = NewWorld(cfg)
	}
}
