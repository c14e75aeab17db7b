package whereroam

import (
	"sync/atomic"
	"testing"

	"whereroam/internal/core"
	"whereroam/internal/dataset"
	"whereroam/internal/mccmnc"
	"whereroam/internal/signaling"
)

// The facade tests exercise every exported name end to end the way the
// examples do.

func TestFacadeQuickstart(t *testing.T) {
	sess := NewSession(1, 0.05)
	mno := sess.MNO()
	labeler := NewLabeler(mno.Host, mno.MVNOs()...)
	pop := DerivePopulation(mno.Catalog, mno.GSMA, labeler, 0)
	if len(pop.Sums) == 0 {
		t.Fatal("no summaries")
	}
	if len(pop.Results) != len(pop.Sums) || len(pop.Labels) != len(pop.Sums) {
		t.Fatalf("results = %d, labels = %d, summaries = %d", len(pop.Results), len(pop.Labels), len(pop.Sums))
	}
	b := Breakdown(pop.Results)
	if b[core.ClassSmart] == 0 || b[core.ClassM2M] == 0 {
		t.Errorf("breakdown missing classes: %v", b)
	}
	v, err := Validate(pop.Results, mno.Truth)
	if err != nil {
		t.Fatal(err)
	}
	if v.Accuracy() < 0.9 {
		t.Errorf("accuracy = %.3f", v.Accuracy())
	}
}

func TestFacadeLabeler(t *testing.T) {
	host, nl := mccmnc.MustParse("23410"), mccmnc.MustParse("20404")
	var got Label = NewLabeler(host).Label(nl, host)
	if got.String() != "I:H" {
		t.Errorf("label = %s", got)
	}
}

func TestFacadeExperiments(t *testing.T) {
	for _, id := range []string{"t1", "fig11", "abl-policy", "fed-sites"} {
		if r, ok := ExperimentByID(id); !ok || r.ID != id {
			t.Errorf("%s missing from the registry", id)
		}
	}
	if _, ok := ExperimentByID("nope"); ok {
		t.Error("unknown id resolved")
	}
}

func TestFacadeECDF(t *testing.T) {
	e := NewECDF([]float64{1, 2, 3})
	if e.Median() != 2 {
		t.Errorf("median = %f", e.Median())
	}
}

func TestFacadeGenerators(t *testing.T) {
	cfg := DefaultM2MConfig()
	cfg.Devices = 200
	ds := GenerateM2M(cfg)
	if len(ds.Transactions) == 0 {
		t.Fatal("no transactions")
	}
	seen := map[DeviceID]bool{}
	for _, tx := range ds.Transactions {
		seen[tx.Device] = true
	}
	if len(seen) == 0 || len(seen) > cfg.Devices {
		t.Fatalf("%d distinct devices signalled, population is %d", len(seen), cfg.Devices)
	}
}

func TestFacadeFederation(t *testing.T) {
	// The facade federation: a multi-site session whose classic
	// single-site accessors keep working, plus the cross-site views.
	hosts := []PLMN{mccmnc.MustParse("23410"), mccmnc.MustParse("26201")}
	fed := NewFederation(1, 0.05, 1, hosts...)
	sites := fed.Sites()
	if len(sites) != 2 {
		t.Fatalf("sites = %d, want 2", len(sites))
	}
	data := fed.FederationData()
	if len(data.Fleet) == 0 || data.World == nil {
		t.Fatal("federation dataset missing fleet or world")
	}
	for i, site := range sites {
		if site.Host() != hosts[i] {
			t.Errorf("site %d observes from %v, want %v", i, site.Host(), hosts[i])
		}
		if len(site.Summaries()) == 0 {
			t.Errorf("site %v has no summaries", site.Host())
		}
	}
	// A single-site Session: the same type, the other constructor.
	var sess *Session = NewSession(1, 0.05)
	if sess.MNO() == nil {
		t.Fatal("session MNO dataset missing")
	}
	var smip *SMIPDataset = sess.SMIP()
	if len(smip.Catalog.Records) == 0 {
		t.Fatal("session SMIP dataset is empty")
	}
	t2, _ := ExperimentByID("t2")
	var rep *Report = t2.Run(sess)
	if rep.ID != "t2" {
		t.Fatalf("report ID = %q", rep.ID)
	}
}

func TestFacadeFederationGenerator(t *testing.T) {
	// The dataset behind a facade federation with no hosts named: the
	// default three-site footprint, and the two planes that are views
	// of the same fleet and schedule.
	fed := NewFederation(1, 0.03, 1).FederationData()
	if want := len(dataset.DefaultFederationHosts()); len(fed.Sites) != want {
		t.Fatalf("sites = %d, want %d", len(fed.Sites), want)
	}
	for _, s := range fed.Sites {
		if len(s.Catalog.Records) == 0 {
			t.Errorf("site %v: empty catalog", s.Host)
		}
	}
	if len(fed.Schedule) != len(fed.Fleet) {
		t.Fatalf("schedule rows = %d, fleet = %d", len(fed.Schedule), len(fed.Fleet))
	}
	var txs atomic.Int64
	dataset.FoldFederationM2M(fed, func(_ int, dev []signaling.Transaction) { txs.Add(int64(len(dev))) })
	if txs.Load() == 0 {
		t.Error("federated M2M plane is empty")
	}
	if smip := dataset.GenerateFederationSMIP(fed); len(smip.Sites) != len(fed.Sites) {
		t.Fatalf("SMIP plane sites = %d, want %d", len(smip.Sites), len(fed.Sites))
	}
}
