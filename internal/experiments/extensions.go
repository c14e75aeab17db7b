package experiments

import (
	"fmt"

	"whereroam/internal/analysis"
	"whereroam/internal/catalog"
	"whereroam/internal/core"
	"whereroam/internal/dataset"
	"whereroam/internal/identity"
	"whereroam/internal/netsim"
	"whereroam/internal/radio"
	"whereroam/internal/settlement"
)

func init() {
	register("ext-revenue", "Extension: occupancy vs wholesale revenue per class (§6/§9)", runExtRevenue)
	register("ext-transparency", "Extension: IR.88 transparency declarations (§1/§8)", runExtTransparency)
	register("ext-nbiot", "Extension: NB-IoT migration and RAT-based detection (§8)", runExtNBIoT)
	register("ext-latency", "Extension: HR vs IPX-hub-breakout latency (§3.2)", runExtLatency)
}

// runExtRevenue quantifies the paper's economic argument: M2M devices
// "occupy radio resources ... [but] do not generate traffic that
// would allow MNOs to accrue revenue".
func runExtRevenue(s *Session) *Report {
	v := s.view()
	r := &Report{
		ID:    "ext-revenue",
		Title: "Occupancy vs wholesale revenue per class",
		Paper: "§6/§9 argue inbound M2M consumes resources without matching roaming revenue; this extension prices the catalog with 2019 wholesale rates",
	}
	tbl := analysis.NewTable("class", "devices", "event share", "revenue share", "EUR/device")
	for _, e := range v.ecos {
		tbl.AddRow(e.Group, e.Devices, e.EventShare, e.RevenueShare, e.RevenuePerDevice)
		r.setValue(e.Group+"_event_share", e.EventShare)
		r.setValue(e.Group+"_revenue_share", e.RevenueShare)
		r.setValue(e.Group+"_eur_per_device", e.RevenuePerDevice)
	}
	r.Tables = append(r.Tables, tbl)

	st := v.statement
	r.setValue("total_revenue_eur", st.TotalRevenue())
	r.setValue("partners", float64(len(st.Lines)))
	r.Notes = append(r.Notes, st.String())
	return r
}

// settle prices cat's records at the 2019 wholesale rates: the
// occupancy-vs-revenue split per inbound class, which reads v's
// population, and the settlement per partner.
func (v *mnoView) settle(cat *catalog.Catalog) ([]settlement.ClassEconomics, *settlement.Statement) {
	rates := settlement.DefaultRates()
	ecos := settlement.EconomicsByGroup(cat, rates, func(rec *catalog.DailyRecord) string {
		i, ok := v.Find(rec.Device)
		if !ok || !v.Labels[i].InboundRoamer() {
			return ""
		}
		class := v.Results[i].Class
		if class == core.ClassM2MMaybe {
			return ""
		}
		return class.String()
	})
	return ecos, settlement.Settle(cat, rates)
}

// runExtTransparency measures how far IR.88 declarations alone get a
// visited operator, and what they add on top of the paper's
// classifier.
func runExtTransparency(s *Session) *Report {
	v := s.view()
	r := &Report{
		ID:    "ext-transparency",
		Title: "IR.88 transparency declarations",
		Paper: "§1: GSMA recommends publishing dedicated M2M APNs/IMSI ranges; adoption is partial, so classification remains necessary",
	}
	// Coverage of the declarations alone.
	trueM2M, declared := 0, 0
	for id, class := range v.Truth {
		if !class.IsM2M() {
			continue
		}
		trueM2M++
		if v.Declared[id] {
			declared++
		}
	}
	coverage := 0.0
	if trueM2M > 0 {
		coverage = float64(declared) / float64(trueM2M)
	}

	// Classifier with and without the declarations.
	plain := core.NewClassifier()
	withDecl := plain.WithDeclarations(v.Declared)
	vPlain, _ := core.Validate(plain.ClassifyWorkers(v.Sums, s.Workers), v.Truth)
	vDecl, _ := core.Validate(withDecl.ClassifyWorkers(v.Sums, s.Workers), v.Truth)

	tbl := analysis.NewTable("config", "m2m recall", "m2m precision", "abstained")
	tbl.AddRow("declarations-only(coverage)", coverage, 1.0, 1-coverage)
	tbl.AddRow("classifier", vPlain.Recall(core.ClassM2M), vPlain.Precision(core.ClassM2M), vPlain.Abstained(core.ClassM2M))
	tbl.AddRow("classifier+declarations", vDecl.Recall(core.ClassM2M), vDecl.Precision(core.ClassM2M), vDecl.Abstained(core.ClassM2M))
	r.Tables = append(r.Tables, tbl)
	r.setValue("declaration_coverage", coverage)
	r.setValue("declaring_operators", float64(v.Transparency.Len()))
	r.setValue("classifier_m2m_recall", vPlain.Recall(core.ClassM2M))
	r.setValue("combined_m2m_recall", vDecl.Recall(core.ClassM2M))
	return r
}

// runExtNBIoT plays the §8 forecast forward: a fraction of the
// roaming meter fleet migrates to NB-IoT, whose RAT identifies IoT
// devices to the visited network without any APN or catalog evidence.
func runExtNBIoT(s *Session) *Report {
	r := &Report{
		ID:    "ext-nbiot",
		Title: "NB-IoT migration and RAT-based detection",
		Paper: "§8: NB-IoT roaming trials were starting; 'NB-IoT will enable visited MNOs to easily detect the inbound roaming IoT devices'",
	}
	tbl := analysis.NewTable("migration", "RAT-rule recall", "signaling/device/day", "vs 2G fleet")
	var baselineSig float64
	for _, migration := range []float64{0, 0.5, 1.0} {
		cfg := dataset.DefaultSMIPConfig()
		cfg.Seed = s.Seed
		cfg.NativeMeters = 0
		cfg.RoamingMeters = s.scaled(6000)
		cfg.NBIoTMigration = migration
		cfg.Workers = s.Workers
		ds := dataset.GenerateSMIP(cfg)

		// RAT-only detection: flag every device with NB-IoT activity.
		perDev := map[identity.DeviceID]radio.RATSet{}
		events := 0
		activeDays := 0
		for i := range ds.Catalog.Records {
			rec := &ds.Catalog.Records[i]
			perDev[rec.Device] |= rec.RadioFlags
			events += rec.Events
			activeDays++
		}
		detected := 0
		for _, flags := range perDev {
			if flags.Has(radio.RATNB) {
				detected++
			}
		}
		recall := 0.0
		if len(perDev) > 0 {
			recall = float64(detected) / float64(len(perDev))
		}
		sigPerDay := float64(events) / float64(activeDays)
		if migration == 0 {
			baselineSig = sigPerDay
		}
		ratio := sigPerDay / baselineSig
		tbl.AddRow(fmt.Sprintf("%.0f%%", migration*100), recall, sigPerDay, ratio)
		key := fmt.Sprintf("migration_%.0f", migration*100)
		r.setValue(key+"_rat_recall", recall)
		r.setValue(key+"_signaling_per_day", sigPerDay)
	}
	r.Tables = append(r.Tables, tbl)
	return r
}

// runExtLatency quantifies the §3.2 remark the paper leaves open: the
// user-plane penalty of home-routed roaming for far destinations, and
// what IPX hub breakout recovers.
func runExtLatency(s *Session) *Report {
	r := &Report{
		ID:    "ext-latency",
		Title: "Home-routed vs IPX-hub-breakout user-plane latency",
		Paper: "§3.2: distances like Spain→Australia imply serious HR penalties; the platform uses different configurations for far destinations (analysis left out of scope)",
	}
	world := netsim.NewWorld(netsim.DefaultConfig())
	model := netsim.DefaultLatencyModel()

	// One sample per roaming device: its home network and the visited
	// network it last attached to (a.last, the network of its latest
	// non-CancelLocation transaction) — not its most-used one.
	aggs := s.M2M().aggs
	var hr, policy []float64
	worstHR := 0.0
	var worstPair string
	for i := range aggs {
		a := &aggs[i]
		if !a.roaming || a.last.IsZero() {
			continue
		}
		visited := a.last
		h := model.UserPlaneRTT(a.home, visited, netsim.ConfigHR)
		p := model.RTTUnderPolicy(world, a.home, visited)
		hr = append(hr, h)
		policy = append(policy, p)
		// Tie-break equal RTTs on the pair name: distinct pairs tie
		// on RTT routinely (the latency model is distance-bucketed),
		// and the reported pair must not depend on visit order.
		pair := fmt.Sprintf("%s -> %s", a.home, visited)
		if h > worstHR || (h == worstHR && worstPair != "" && pair < worstPair) {
			worstHR = h
			worstPair = pair
		}
	}
	eHR := analysis.NewECDF(hr)
	ePol := analysis.NewECDF(policy)
	tbl := analysis.NewTable("config", "median ms", "p95 ms", "max ms")
	tbl.AddRow("home-routed", eHR.Median(), eHR.Quantile(0.95), eHR.Max())
	tbl.AddRow("platform policy (HR+IHBO)", ePol.Median(), ePol.Quantile(0.95), ePol.Max())
	r.Tables = append(r.Tables, tbl)
	r.setValue("hr_median_ms", eHR.Median())
	r.setValue("hr_p95_ms", eHR.Quantile(0.95))
	r.setValue("hr_max_ms", eHR.Max())
	r.setValue("policy_p95_ms", ePol.Quantile(0.95))
	r.setValue("policy_max_ms", ePol.Max())
	r.Notes = append(r.Notes, "worst HR pair: "+worstPair)
	return r
}
