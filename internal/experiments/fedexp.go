package experiments

import (
	"fmt"

	"whereroam/internal/analysis"
	"whereroam/internal/catalog"
	"whereroam/internal/core"
	"whereroam/internal/dataset"
	"whereroam/internal/identity"
	"whereroam/internal/mccmnc"
)

func init() {
	register("fed-sites", "Federation: per-site population and label breakdown (§5, Table 1)", runFedSites)
	register("fed-agreement", "Federation: cross-site label and class agreement", runFedAgreement)
	register("fed-validation", "Federation: federated vs single-site classifier validation", runFedValidation)
}

// Site is one visited operator's analysis view inside a Session:
// the site dataset plus the classified population its local pipeline
// derived — everything a single-MNO analysis has, per site.
type Site struct {
	// Data is the site's slice of the federation dataset.
	Data *dataset.FederationSite

	pop *core.Population
}

// Host returns the site's visited MNO.
func (st *Site) Host() mccmnc.PLMN { return st.Data.Host }

// Summaries returns the site's per-device window aggregates.
func (st *Site) Summaries() []catalog.Summary { return st.pop.Sums }

// Class returns the site's class verdict for a device; ok is false
// when the site never observed it.
func (st *Site) Class(dev identity.DeviceID) (core.Class, bool) {
	i, ok := st.pop.Find(dev)
	if !ok {
		return 0, false
	}
	return st.pop.Results[i].Class, true
}

// Label returns the site's roaming label for a device; ok is false
// when the site never observed it.
func (st *Site) Label(dev identity.DeviceID) (core.Label, bool) {
	i, ok := st.pop.Find(dev)
	if !ok {
		return core.Label{}, false
	}
	return st.pop.Labels[i], true
}

// FederationData lazily builds the multi-site dataset: one shared
// world, GSMA catalog and roamer fleet, one catalog build per host in
// Hosts (empty = the default three-site footprint), bit-identical at
// any worker count.
func (s *Session) FederationData() *dataset.FederationDataset {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fed == nil {
		cfg := dataset.DefaultFederationConfig()
		cfg.Seed = s.Seed
		cfg.Hosts = s.Hosts
		cfg.FleetDevices = s.scaled(cfg.FleetDevices)
		cfg.NativePerSite = s.scaled(cfg.NativePerSite)
		cfg.Workers = s.Workers
		s.fed = dataset.GenerateFederation(cfg)
	}
	return s.fed
}

// FederationM2M lazily folds the federated §3/§6 transaction plane —
// the signaling the shared fleet's M2M devices generate across every
// site (dataset.FoldFederationM2M) — into per-device counts, each
// transaction checked against the presence schedule as it passes. The
// session holds none of the transactions.
func (s *Session) FederationM2M() *FederationM2MView {
	fed := s.FederationData()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fedM2M == nil {
		s.fedM2M = newFederationM2MView(fed)
	}
	return s.fedM2M
}

// FederationSMIP lazily builds the federated §7 smart-meter plane:
// one meters-only dataset per site over the shared fleet's meters
// plus each site's native deployment. Each site's catalog builds
// through the per-event capture walk, like the federation's own site
// catalogs, bit-identical at any worker count.
func (s *Session) FederationSMIP() *dataset.FederationSMIP {
	fed := s.FederationData()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fedSMIP == nil {
		s.fedSMIP = dataset.GenerateFederationSMIP(fed)
	}
	return s.fedSMIP
}

// Sites lazily builds the per-site analysis views: each site's
// population is derived locally over its own catalog — the same
// core.Derive the single-site analyses use.
func (s *Session) Sites() []*Site {
	fed := s.FederationData()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sites != nil {
		return s.sites
	}
	sites := make([]*Site, len(fed.Sites))
	for j, data := range fed.Sites {
		sites[j] = &Site{
			Data: data,
			pop:  core.Derive(data.Catalog, fed.GSMA, core.NewLabeler(data.Host), s.Workers),
		}
	}
	s.sites = sites
	return s.sites
}

func runFedSites(s *Session) *Report {
	fed := s.FederationData()
	sites := s.Sites()
	r := &Report{
		ID:    "fed-sites",
		Title: "Per-site population and label breakdown",
		Paper: "Table 1/§5: several visited operators each see a large inbound M2M share because the same global fleets roam into all of them",
	}
	tbl := analysis.NewTable("site", "devices", "records", "inbound", "inbound m2m", "fleet seen")
	fleetN := float64(len(fed.Fleet))
	for _, st := range sites {
		inbound, inboundM2M := 0, 0
		for i, l := range st.pop.Labels {
			if !l.InboundRoamer() {
				continue
			}
			inbound++
			if c := st.pop.Results[i].Class; c == core.ClassM2M || c == core.ClassM2MMaybe {
				inboundM2M++
			}
		}
		n := len(st.pop.Sums)
		coverage := float64(len(st.Data.Present)) / fleetN
		tbl.AddRow(siteName(st.Host()), n, len(st.Data.Catalog.Records),
			analysis.Pct(float64(inbound)/float64(n)),
			analysis.Pct(float64(inboundM2M)/float64(max(inbound, 1))),
			analysis.Pct(coverage))
		key := "site_" + st.Host().Concat()
		r.setValue(key+"_devices", float64(n))
		r.setValue(key+"_inbound_share", float64(inbound)/float64(n))
		r.setValue(key+"_fleet_coverage", coverage)
	}
	r.Tables = append(r.Tables, tbl)
	r.setValue("sites", float64(len(sites)))
	r.setValue("fleet_devices", fleetN)

	// How federated the fleet really is: the share of devices whose
	// home provisioned them into more than one visited network.
	multi := 0
	for i := range fed.Fleet {
		n := 0
		for _, st := range sites {
			if st.Data.Present[fed.Fleet[i].ID] {
				n++
			}
		}
		if n > 1 {
			multi++
		}
	}
	r.setValue("fleet_multisite_share", float64(multi)/fleetN)
	return r
}

func runFedAgreement(s *Session) *Report {
	fed := s.FederationData()
	sites := s.Sites()
	r := &Report{
		ID:    "fed-agreement",
		Title: "Cross-site label and class agreement",
		Paper: "§5: a device's roaming label is defined per observing operator; for a fleet SIM every visited operator should independently derive I:H and (mostly) the same class",
	}
	// Pairwise agreement over fleet devices both sites observed.
	labelTbl := analysis.NewTable(append([]string{"label agree"}, siteNames(sites)...)...)
	classTbl := analysis.NewTable(append([]string{"class agree"}, siteNames(sites)...)...)
	minLabel, minClass := 1.0, 1.0
	var classSum float64
	var pairs int
	for a, sa := range sites {
		lRow := []interface{}{siteName(sa.Host())}
		cRow := []interface{}{siteName(sa.Host())}
		for b, sb := range sites {
			if a == b {
				lRow = append(lRow, "—")
				cRow = append(cRow, "—")
				continue
			}
			shared, labelEq, classEq := 0, 0, 0
			for i := range fed.Fleet {
				dev := fed.Fleet[i].ID
				la, okA := sa.Label(dev)
				lb, okB := sb.Label(dev)
				if !okA || !okB {
					continue
				}
				shared++
				if la == lb {
					labelEq++
				}
				ca, _ := sa.Class(dev)
				cb, _ := sb.Class(dev)
				if ca == cb {
					classEq++
				}
			}
			if shared == 0 {
				lRow = append(lRow, "n/a")
				cRow = append(cRow, "n/a")
				continue
			}
			lShare := float64(labelEq) / float64(shared)
			cShare := float64(classEq) / float64(shared)
			lRow = append(lRow, analysis.Pct(lShare))
			cRow = append(cRow, analysis.Pct(cShare))
			if a < b {
				minLabel = min(minLabel, lShare)
				minClass = min(minClass, cShare)
				classSum += cShare
				pairs++
			}
		}
		labelTbl.AddRow(lRow...)
		classTbl.AddRow(cRow...)
	}
	r.Tables = append(r.Tables, labelTbl, classTbl)
	// Only meaningful when at least one site pair shared devices;
	// otherwise the 1.0 initial values would fake perfect agreement.
	if pairs > 0 {
		r.setValue("label_agreement_min", minLabel)
		r.setValue("class_agreement_min", minClass)
		r.setValue("class_agreement_mean", classSum/float64(pairs))
	}

	// Raw label equality across sites is not the invariant — a German
	// fleet SIM is N:H at the German site but I:H abroad. The
	// invariant is grammar consistency: at every site the label must
	// be exactly the one the home/host geography implies.
	consistent, checked := 0, 0
	for i := range fed.Fleet {
		dev := &fed.Fleet[i]
		ok := true
		seen := false
		for _, st := range sites {
			l, present := st.Label(dev.ID)
			if !present {
				continue
			}
			seen = true
			want := core.LabelIH
			if mccmnc.SameCountry(dev.Home, st.Host()) {
				want = core.LabelNH
			}
			if l != want {
				ok = false
			}
		}
		if seen {
			checked++
			if ok {
				consistent++
			}
		}
	}
	if checked > 0 {
		r.setValue("label_consistency", float64(consistent)/float64(checked))
		r.Notes = append(r.Notes,
			fmt.Sprintf("label grammar consistent for %d/%d fleet devices across all observing sites", consistent, checked))
	}

	// Schedule exclusivity: with the shared presence schedule, a fleet
	// device active at one site on a day must be absent from every
	// other site's catalog that day. Checked over the actual catalogs
	// (not the schedule itself), so a regression in either emission
	// path shows up as a violation share above zero.
	type devDay struct {
		dev identity.DeviceID
		day int
	}
	siteOf := map[devDay]int{}
	violations, devDays := 0, 0
	for j, st := range sites {
		for i := range st.Data.Catalog.Records {
			rec := &st.Data.Catalog.Records[i]
			if !st.Data.Present[rec.Device] {
				continue // site-native device, never shared
			}
			devDays++
			key := devDay{rec.Device, rec.Day}
			if prev, ok := siteOf[key]; ok && prev != j {
				violations++
			}
			siteOf[key] = j
		}
	}
	if devDays > 0 {
		r.setValue("presence_exclusivity", 1-float64(violations)/float64(devDays))
		r.Notes = append(r.Notes,
			fmt.Sprintf("presence schedule: %d shared fleet device-days observed, %d at more than one site", devDays, violations))
	}
	return r
}

func runFedValidation(s *Session) *Report {
	fed := s.FederationData()
	sites := s.Sites()
	r := &Report{
		ID:    "fed-validation",
		Title: "Federated vs single-site classifier validation",
		Paper: "§5/§8: one operator sees a slice of a fleet's behaviour; pooling several operators' verdicts should classify the shared fleet at least as well as any single site",
	}
	// Per-site accuracy on the fleet devices that site observed.
	tbl := analysis.NewTable("site", "fleet seen", "accuracy", "m2m recall")
	var sumAcc, bestAcc float64
	for _, st := range sites {
		var fleetResults []core.Result
		for _, res := range st.pop.Results {
			if st.Data.Present[res.Device] {
				fleetResults = append(fleetResults, res)
			}
		}
		val, err := core.Validate(fleetResults, st.Data.Truth)
		if err != nil {
			r.Notes = append(r.Notes, fmt.Sprintf("site %v validation: %v", st.Host(), err))
			continue
		}
		acc := val.Accuracy()
		sumAcc += acc
		bestAcc = max(bestAcc, acc)
		tbl.AddRow(siteName(st.Host()), len(fleetResults), acc, val.Recall(core.ClassM2M))
		r.setValue("site_"+st.Host().Concat()+"_accuracy", acc)
	}

	// Federated verdicts, two strategies over the sites that saw each
	// device. Vote: majority class; the earliest-observing site's
	// verdict wins ties with it, and ties between two other classes
	// break by the fixed class order below — both deterministic, never
	// map iteration order. Union: any site with hard M2M evidence
	// settles the device as m2m — the paper's §8 point that once one
	// operator identifies a fleet, every partner can benefit — falling
	// back to the vote otherwise. Evaluated over every fleet device at
	// least one site observed.
	voteOrder := []core.Class{core.ClassSmart, core.ClassFeat, core.ClassM2M, core.ClassM2MMaybe}
	var voted, union []core.Result
	for i := range fed.Fleet {
		dev := fed.Fleet[i].ID
		counts := map[core.Class]int{}
		var first core.Class
		seen, anyM2M := 0, false
		for _, st := range sites {
			if c, ok := st.Class(dev); ok {
				if seen == 0 {
					first = c
				}
				counts[c]++
				seen++
				anyM2M = anyM2M || c == core.ClassM2M
			}
		}
		if seen == 0 {
			continue
		}
		best, bestN := first, counts[first]
		for _, c := range voteOrder {
			if counts[c] > bestN {
				best, bestN = c, counts[c]
			}
		}
		voted = append(voted, core.Result{Device: dev, Class: best, Evidence: "federated-vote"})
		u := best
		if anyM2M {
			u = core.ClassM2M
		}
		union = append(union, core.Result{Device: dev, Class: u, Evidence: "federated-union"})
	}
	if val, err := core.Validate(voted, fed.Truth); err == nil {
		tbl.AddRow("federated vote", len(voted), val.Accuracy(), val.Recall(core.ClassM2M))
		r.setValue("federated_accuracy", val.Accuracy())
		r.setValue("federated_m2m_recall", val.Recall(core.ClassM2M))
	}
	if val, err := core.Validate(union, fed.Truth); err == nil {
		tbl.AddRow("federated union", len(union), val.Accuracy(), val.Recall(core.ClassM2M))
		r.setValue("union_accuracy", val.Accuracy())
		r.setValue("union_m2m_recall", val.Recall(core.ClassM2M))
		r.setValue("union_m2m_precision", val.Precision(core.ClassM2M))
	}
	r.Tables = append(r.Tables, tbl)
	if len(sites) > 0 {
		r.setValue("mean_site_accuracy", sumAcc/float64(len(sites)))
		r.setValue("best_site_accuracy", bestAcc)
	}
	r.setValue("fleet_evaluated", float64(len(voted)))

	// The schedule's day-slice effect: presence is mutually exclusive,
	// so a multi-site device's active days partition across its sites —
	// any single operator holds only a slice of the evidence the
	// federation holds together. max_site_day_share is the mean share
	// of a shared device's total active days its best-covered site saw
	// (1.0 would mean single sites see everything; the lower it is, the
	// more the §8-style evidence pooling buys).
	daysAt := map[identity.DeviceID][]int{}
	for _, st := range sites {
		sums := st.Summaries()
		for i := range sums {
			if st.Data.Present[sums[i].Device] {
				daysAt[sums[i].Device] = append(daysAt[sums[i].Device], sums[i].ActiveDays)
			}
		}
	}
	// Iterate in fleet order: float accumulation must not depend on
	// map iteration order, or the report would differ run to run in
	// the last bits.
	var shareSum float64
	multiSite := 0
	for i := range fed.Fleet {
		counts := daysAt[fed.Fleet[i].ID]
		if len(counts) < 2 {
			continue
		}
		maxDays, total := 0, 0
		for _, n := range counts {
			total += n
			maxDays = max(maxDays, n)
		}
		if total == 0 {
			continue
		}
		multiSite++
		shareSum += float64(maxDays) / float64(total)
	}
	if multiSite > 0 {
		r.setValue("max_site_day_share", shareSum/float64(multiSite))
		r.Notes = append(r.Notes, fmt.Sprintf(
			"schedule day slices: %d fleet devices split across 2+ sites; their best-covered site saw %.0f%% of their active days on average",
			multiSite, 100*shareSum/float64(multiSite)))
	}
	return r
}

// siteName renders a site's operator for table rows.
func siteName(p mccmnc.PLMN) string {
	if op, ok := mccmnc.Lookup(p); ok {
		return fmt.Sprintf("%s (%s)", op.Name, p)
	}
	return p.String()
}

func siteNames(sites []*Site) []string {
	out := make([]string, len(sites))
	for i, st := range sites {
		out[i] = siteName(st.Host())
	}
	return out
}
