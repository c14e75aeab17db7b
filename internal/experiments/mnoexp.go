package experiments

import (
	"fmt"
	"sort"

	"whereroam/internal/analysis"
	"whereroam/internal/catalog"
	"whereroam/internal/core"
	"whereroam/internal/dataset"
	"whereroam/internal/devices"
	"whereroam/internal/identity"
	"whereroam/internal/mccmnc"
	"whereroam/internal/radio"
	"whereroam/internal/settlement"
)

func init() {
	register("t2", "Population breakdown: roaming labels and device classes (§4.2/§4.3)", runT2)
	register("fig5", "Home country of inbound roaming devices", runFig5)
	register("fig6", "Device class vs roaming label", runFig6)
	register("fig7", "Days active per device class and roaming status", runFig7)
	register("fig8", "Radius of gyration per device class", runFig8)
	register("fig9", "Device shares with respect to services and RATs", runFig9)
	register("fig10", "Traffic: signaling, calls and data per class and roaming status", runFig10)
	register("fig12", "Connected cars vs smart meters traffic patterns", runFig12)
	register("t3", "SMIP-roaming provenance: home operator and module vendors (§4.4)", runT3)
}

// mnoView is what a session keeps of the visited-MNO dataset (§4–§6):
// the classified population every analysis shares, the window, ground
// truth and declarations, and the outputs of the runners' loops over
// daily records, run once when the dataset is built. It never holds
// the records themselves.
type mnoView struct {
	*core.Population
	Days         int
	Truth        map[identity.DeviceID]devices.Class
	Declared     map[identity.DeviceID]bool
	Transparency *core.Registry

	// perDay and dayTotal are t2's per-day label counts.
	perDay   map[int]map[core.Label]int
	dayTotal map[int]int
	// ecos and statement are ext-revenue's wholesale settlement.
	ecos      []settlement.ClassEconomics
	statement *settlement.Statement
}

// newMNOView derives ds's population and runs every record loop over
// its catalog. groupOf, in the settlement, reads the population, so
// that is derived first.
func newMNOView(ds *dataset.MNODataset, workers int) *mnoView {
	labeler := core.NewLabeler(ds.Host, dataset.MVNO1, dataset.MVNO2)
	v := &mnoView{
		Population:   core.Derive(ds.Catalog, ds.GSMA, labeler, workers),
		Days:         ds.Days,
		Truth:        ds.Truth,
		Declared:     ds.Declared,
		Transparency: ds.Transparency,
	}
	v.perDay, v.dayTotal = dayLabels(ds.Catalog, labeler)
	v.ecos, v.statement = v.settle(ds.Catalog)
	return v
}

// view returns the session's mnoView, generating the MNO dataset the
// first time. It lives on the session, like Sites, so it is built once
// however many runners share it and is collected with the session.
func (s *Session) view() *mnoView {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.mnoView == nil {
		s.generateMNO()
	}
	return s.mnoView
}

// dayLabels counts the roaming labels of cat's daily records per day
// (the paper's "per-day" framing), and the records per day.
func dayLabels(cat *catalog.Catalog, labeler *core.Labeler) (perDay map[int]map[core.Label]int, dayTotal map[int]int) {
	perDay = map[int]map[core.Label]int{}
	dayTotal = map[int]int{}
	for i := range cat.Records {
		rec := &cat.Records[i]
		m := perDay[rec.Day]
		if m == nil {
			m = map[core.Label]int{}
			perDay[rec.Day] = m
		}
		m[labeler.LabelRecord(rec)]++
		dayTotal[rec.Day]++
	}
	return perDay, dayTotal
}

func runT2(s *Session) *Report {
	v := s.view()
	r := &Report{
		ID:    "t2",
		Title: "Population breakdown",
		Paper: "labels/day: H:H ≈48%, V:H ≈33%, I:H ≈18%; classes: smart 62%, feat 8%, m2m 26%, m2m-maybe 4%",
	}

	// Per-day label shares over daily records, averaged across the
	// window in day order: float accumulation over map iteration order
	// would wobble in the last bits from run to run.
	labelShare := map[core.Label]float64{}
	for day := 0; day < v.Days; day++ {
		m := v.perDay[day]
		if m == nil {
			continue
		}
		for _, l := range core.AllLabels {
			if n := m[l]; n > 0 {
				labelShare[l] += float64(n) / float64(v.dayTotal[day])
			}
		}
	}
	for l := range labelShare {
		labelShare[l] /= float64(len(v.perDay))
	}
	tbl := analysis.NewTable("label", "avg daily share")
	for _, l := range core.AllLabels {
		tbl.AddRow(l.String(), labelShare[l])
		r.setValue("label_"+l.String(), labelShare[l])
	}
	r.Tables = append(r.Tables, tbl)

	// Class shares over the whole population.
	b := core.Breakdown(v.Results)
	n := float64(len(v.Results))
	tbl2 := analysis.NewTable("class", "devices", "share")
	for _, c := range []core.Class{core.ClassSmart, core.ClassFeat, core.ClassM2M, core.ClassM2MMaybe} {
		tbl2.AddRow(c.String(), b[c], float64(b[c])/n)
		r.setValue("class_"+c.String(), float64(b[c])/n)
	}
	r.Tables = append(r.Tables, tbl2)

	// Classifier validation against ground truth (the simulator's
	// bonus over the paper).
	val, err := core.Validate(v.Results, v.Truth)
	if err == nil {
		r.setValue("classifier_accuracy", val.Accuracy())
		r.setValue("m2m_precision", val.Precision(core.ClassM2M))
		r.setValue("m2m_recall", val.Recall(core.ClassM2M))
		r.Notes = append(r.Notes, val.String())
	}
	return r
}

func runFig5(s *Session) *Report {
	v := s.view()
	r := &Report{
		ID:    "fig5",
		Title: "Home country of inbound roaming devices",
		Paper: "top-20 countries ≈93% of inbound roamers; top-3 (NL, SE, ES) ≈60%; 83% of m2m from top-3 vs 17% smart / 35% feat",
	}
	ct := analysis.NewCrosstab()
	for i := range v.Sums {
		if !v.Labels[i].InboundRoamer() {
			continue
		}
		class := v.Results[i].Class
		if class == core.ClassM2MMaybe {
			continue // the paper drops these from the analysis
		}
		ct.Add(mccmnc.ISOByMCC(v.Sums[i].SIM.MCC), class.String(), 1)
	}
	ct.SortRowsByTotal()
	rows := ct.Rows()
	total := ct.Total()

	tbl := analysis.NewTable("home", "share", "smart", "feat", "m2m")
	cum := 0.0
	top3, top20 := 0.0, 0.0
	for i, iso := range rows {
		share := ct.RowTotal(iso) / total
		cum += share
		if i < 3 {
			top3 = cum
		}
		if i < 20 {
			top20 = cum
		}
		if i < 20 {
			tbl.AddRow(iso, share,
				ct.Get(iso, "smart"), ct.Get(iso, "feat"), ct.Get(iso, "m2m"))
		}
	}
	r.Tables = append(r.Tables, tbl)
	r.setValue("top3_share", top3)
	r.setValue("top20_share", top20)
	// Per-class top-3 (NL/SE/ES) shares.
	for _, class := range []string{"smart", "feat", "m2m"} {
		classTotal := ct.ColTotal(class)
		if classTotal == 0 {
			continue
		}
		inTop3 := ct.Get("NL", class) + ct.Get("SE", class) + ct.Get("ES", class)
		r.setValue(class+"_top3_share", inTop3/classTotal)
	}
	return r
}

func runFig6(s *Session) *Report {
	v := s.view()
	r := &Report{
		ID:    "fig6",
		Title: "Device class vs roaming label",
		Paper: "I:H devices: 71.1% m2m, 27.1% smart; m2m devices: 74.7% I:H; smart 12.1% I:H; feat 6.4% I:H",
	}
	ct := analysis.NewCrosstab()
	for i, res := range v.Results {
		if res.Class == core.ClassM2MMaybe {
			continue
		}
		ct.Add(res.Class.String(), v.Labels[i].String(), 1)
	}
	// Left heatmap: normalized per class (rows); right: per label.
	left := analysis.NewTable("class \\ label", "H:H", "V:H", "N:H", "I:H", "H:A", "V:A")
	right := analysis.NewTable("label \\ class", "smart", "feat", "m2m")
	for _, class := range []string{"smart", "feat", "m2m"} {
		cells := make([]interface{}, 0, 7)
		cells = append(cells, class)
		for _, l := range core.AllLabels {
			cells = append(cells, analysis.Pct(ct.RowShare(class, l.String())))
		}
		left.AddRow(cells...)
	}
	for _, l := range core.AllLabels {
		right.AddRow(l.String(),
			analysis.Pct(ct.ColShare("smart", l.String())),
			analysis.Pct(ct.ColShare("feat", l.String())),
			analysis.Pct(ct.ColShare("m2m", l.String())))
	}
	r.Tables = append(r.Tables, left, right)
	r.setValue("ih_m2m_share", ct.ColShare("m2m", "I:H"))
	r.setValue("ih_smart_share", ct.ColShare("smart", "I:H"))
	r.setValue("m2m_ih_share", ct.RowShare("m2m", "I:H"))
	r.setValue("smart_ih_share", ct.RowShare("smart", "I:H"))
	r.setValue("feat_ih_share", ct.RowShare("feat", "I:H"))
	return r
}

// groupECDF collects a per-device metric per (class, inbound) group,
// sampling devices in population (device) order.
func groupECDF(v *mnoView, metric func(*catalog.Summary) (float64, bool)) map[string]*analysis.ECDF {
	samples := map[string][]float64{}
	for i := range v.Sums {
		class := v.Results[i].Class
		if class == core.ClassM2MMaybe {
			continue
		}
		var roam string
		switch label := v.Labels[i]; {
		case label.InboundRoamer():
			roam = "inbound"
		case label.Native() || label == core.LabelVH:
			roam = "native"
		default:
			continue
		}
		if val, ok := metric(&v.Sums[i]); ok {
			key := class.String() + "/" + roam
			samples[key] = append(samples[key], val)
		}
	}
	out := map[string]*analysis.ECDF{}
	for k, vs := range samples {
		out[k] = analysis.NewECDF(vs)
	}
	return out
}

func runFig7(s *Session) *Report {
	v := s.view()
	r := &Report{
		ID:    "fig7",
		Title: "Days active per device class and roaming status",
		Paper: "inbound m2m median 9 days vs inbound smart 2 days (4.5×); native classes comparable",
	}
	e := groupECDF(v, func(sum *catalog.Summary) (float64, bool) {
		return float64(sum.ActiveDays), true
	})
	tbl := analysis.NewTable("group", "n", "median", "p90")
	for _, k := range []string{"m2m/inbound", "smart/inbound", "m2m/native", "smart/native"} {
		ec := e[k]
		if ec == nil || ec.N() == 0 {
			continue
		}
		tbl.AddRow(k, ec.N(), ec.Median(), ec.Quantile(0.9))
		r.setValue(k+"_median", ec.Median())
	}
	r.Tables = append(r.Tables, tbl)
	if m, sm := e["m2m/inbound"], e["smart/inbound"]; m != nil && sm != nil && sm.Median() > 0 {
		r.setValue("inbound_m2m_smart_ratio", m.Median()/sm.Median())
	}
	return r
}

func runFig8(s *Session) *Report {
	v := s.view()
	r := &Report{
		ID:    "fig8",
		Title: "Radius of gyration per device class",
		Paper: "inbound m2m devices mostly stationary: ~80% below 1 km gyration",
	}
	e := groupECDF(v, func(sum *catalog.Summary) (float64, bool) {
		if !sum.HasLocation {
			return 0, false
		}
		return sum.MeanGyrationKm, true
	})
	tbl := analysis.NewTable("group", "n", "median km", "≤1 km", "p90 km")
	for _, k := range []string{"m2m/inbound", "smart/inbound", "m2m/native", "smart/native", "feat/native"} {
		ec := e[k]
		if ec == nil || ec.N() == 0 {
			continue
		}
		tbl.AddRow(k, ec.N(), ec.Median(), analysis.Pct(ec.At(1)), ec.Quantile(0.9))
		r.setValue(k+"_under_1km", ec.At(1))
		r.setValue(k+"_median_km", ec.Median())
	}
	r.Tables = append(r.Tables, tbl)
	return r
}

// ratBucket names the RATSet the way Fig 9 buckets devices.
func ratBucket(s radio.RATSet) string {
	if s.Empty() {
		return "none"
	}
	return s.String()
}

func runFig9(s *Session) *Report {
	v := s.view()
	r := &Report{
		ID:    "fig9",
		Title: "Device shares wrt services: connectivity, data, voice per RAT",
		Paper: "m2m: 77.4% 2G-only connectivity, 56.7% 2G-only data, 24.5% no data, 27.5% no voice, 60.6% 2G voice; feat: 50.9% 2G-only, 56.8% no data, 7.3% no voice",
	}
	conn := analysis.NewCrosstab()
	data := analysis.NewCrosstab()
	voice := analysis.NewCrosstab()
	for i := range v.Sums {
		class := v.Results[i].Class
		if class == core.ClassM2MMaybe {
			continue
		}
		sum := &v.Sums[i]
		conn.Add(class.String(), ratBucket(sum.RadioFlags), 1)
		data.Add(class.String(), ratBucket(sum.DataRATs), 1)
		voice.Add(class.String(), ratBucket(sum.VoiceRATs), 1)
	}
	buckets := []string{"2G", "3G", "4G", "2G+3G", "2G+4G", "3G+4G", "2G+3G+4G", "none"}
	for name, ct := range map[string]*analysis.Crosstab{"connectivity": conn, "data": data, "voice": voice} {
		tbl := analysis.NewTable(append([]string{name}, buckets...)...)
		for _, class := range []string{"m2m", "smart", "feat"} {
			cells := []interface{}{class}
			for _, b := range buckets {
				cells = append(cells, analysis.Pct(ct.RowShare(class, b)))
			}
			tbl.AddRow(cells...)
		}
		r.Tables = append(r.Tables, tbl)
	}
	sort.Slice(r.Tables, func(i, j int) bool { return r.Tables[i].Header[0] < r.Tables[j].Header[0] })
	r.setValue("m2m_2g_only_conn", conn.RowShare("m2m", "2G"))
	r.setValue("m2m_2g_only_data", data.RowShare("m2m", "2G"))
	r.setValue("m2m_no_data", data.RowShare("m2m", "none"))
	r.setValue("m2m_no_voice", voice.RowShare("m2m", "none"))
	r.setValue("feat_2g_only_conn", conn.RowShare("feat", "2G"))
	r.setValue("feat_no_data", data.RowShare("feat", "none"))
	r.setValue("feat_no_voice", voice.RowShare("feat", "none"))
	r.setValue("smart_2g_only_conn", conn.RowShare("smart", "2G"))
	return r
}

func runFig10(s *Session) *Report {
	v := s.view()
	r := &Report{
		ID:    "fig10",
		Title: "Traffic per class and roaming status",
		Paper: "m2m signaling ≪ smartphone signaling; feat lowest; most m2m place no calls; inbound m2m data tiny; inbound smart data < native smart (bill shock)",
	}
	days := float64(v.Days)
	sig := groupECDF(v, func(sum *catalog.Summary) (float64, bool) {
		if sum.ActiveDays == 0 {
			return 0, false
		}
		return float64(sum.Events) / float64(sum.ActiveDays), true
	})
	calls := groupECDF(v, func(sum *catalog.Summary) (float64, bool) {
		return float64(sum.Calls) / days, true
	})
	bytes := groupECDF(v, func(sum *catalog.Summary) (float64, bool) {
		if sum.ActiveDays == 0 {
			return 0, false
		}
		return float64(sum.Bytes) / float64(sum.ActiveDays), true
	})
	groups := []string{"smart/native", "smart/inbound", "m2m/native", "m2m/inbound", "feat/native", "feat/inbound"}
	tbl := analysis.NewTable("group", "signaling/day p50", "calls/day mean", "bytes/day p50")
	for _, g := range groups {
		se, ce, be := sig[g], calls[g], bytes[g]
		if se == nil || se.N() == 0 {
			continue
		}
		var cm, bm float64
		if ce != nil {
			cm = ce.Mean()
		}
		if be != nil {
			bm = be.Median()
		}
		tbl.AddRow(g, se.Median(), cm, bm)
		r.setValue(g+"_signaling_median", se.Median())
		r.setValue(g+"_calls_mean", cm)
		r.setValue(g+"_bytes_median", bm)
	}
	r.Tables = append(r.Tables, tbl)
	// Zero-call m2m share (Fig 10-center: "for the vast majority of
	// M2M devices we do not find any calls").
	zeroCalls, m2mN := 0, 0
	for i, res := range v.Results {
		if res.Class != core.ClassM2M {
			continue
		}
		m2mN++
		if v.Sums[i].Calls == 0 {
			zeroCalls++
		}
	}
	if m2mN > 0 {
		r.setValue("m2m_zero_call_share", float64(zeroCalls)/float64(m2mN))
	}
	return r
}

func runFig12(s *Session) *Report {
	v := s.view()
	r := &Report{
		ID:    "fig12",
		Title: "Connected cars vs smart meters",
		Paper: "cars look like roaming smartphones (mobile, heavy signaling and data); meters are stationary and quiet on both",
	}
	type groupStats struct {
		gyr, sig, bytes []float64
	}
	groups := map[string]*groupStats{"cars": {}, "meters": {}, "smartphones": {}}
	for i := range v.Sums {
		sum := &v.Sums[i]
		if !v.Labels[i].InboundRoamer() {
			continue
		}
		var g *groupStats
		switch v.Truth[sum.Device] {
		case devices.ClassConnectedCar:
			g = groups["cars"]
		case devices.ClassSmartMeter:
			g = groups["meters"]
		case devices.ClassSmartphone:
			g = groups["smartphones"]
		default:
			continue
		}
		if sum.HasLocation {
			g.gyr = append(g.gyr, sum.MeanGyrationKm)
		}
		if sum.ActiveDays > 0 {
			g.sig = append(g.sig, float64(sum.Events)/float64(sum.ActiveDays))
			g.bytes = append(g.bytes, float64(sum.Bytes)/float64(sum.ActiveDays))
		}
	}
	tbl := analysis.NewTable("group", "n", "gyration p50 km", "signaling/day p50", "bytes/day p50")
	for _, name := range []string{"cars", "meters", "smartphones"} {
		g := groups[name]
		if len(g.sig) == 0 {
			continue
		}
		ge := analysis.NewECDF(g.gyr)
		se := analysis.NewECDF(g.sig)
		be := analysis.NewECDF(g.bytes)
		tbl.AddRow(name, se.N(), ge.Median(), se.Median(), be.Median())
		r.setValue(name+"_gyration_median", ge.Median())
		r.setValue(name+"_signaling_median", se.Median())
		r.setValue(name+"_bytes_median", be.Median())
	}
	r.Tables = append(r.Tables, tbl)
	return r
}

func runT3(s *Session) *Report {
	v := s.view()
	r := &Report{
		ID:    "t3",
		Title: "SMIP-roaming provenance",
		Paper: "all roaming smart-meter SIMs provisioned by one NL operator; devices map to exactly two M2M module vendors (Gemalto, Telit)",
	}
	// Analyst-side detection: inbound roamers whose APNs match the
	// energy keywords (§4.4's method), then inspect SIM homes and
	// GSMA vendors.
	energy := map[string]bool{"smhp": true, "centricaplc": true, "rwe": true, "npower": true,
		"elster": true, "metering": true, "generalelectric": true, "bglobal": true,
		"smartgrid": true, "edfenergy": true, "amr": true}
	homes := map[mccmnc.PLMN]int{}
	vendors := map[string]int{}
	n := 0
	for i := range v.Sums {
		sum := &v.Sums[i]
		if !v.Labels[i].InboundRoamer() {
			continue
		}
		matched := false
		for _, a := range sum.APNs {
			for _, kw := range a.Keywords() {
				if energy[kw] {
					matched = true
					break
				}
			}
			if matched {
				break
			}
		}
		if !matched {
			continue
		}
		n++
		homes[sum.SIM]++
		if sum.InfoOK {
			vendors[sum.Info.Vendor]++
		}
	}
	tbl := analysis.NewTable("home operator", "devices")
	homeKeys := make([]mccmnc.PLMN, 0, len(homes))
	for p := range homes {
		homeKeys = append(homeKeys, p)
	}
	sort.Slice(homeKeys, func(i, j int) bool { return homeKeys[i].Concat() < homeKeys[j].Concat() })
	for _, p := range homeKeys {
		name := p.String()
		if op, ok := mccmnc.Lookup(p); ok {
			name = fmt.Sprintf("%s (%s)", op.Name, p)
		}
		tbl.AddRow(name, homes[p])
	}
	tbl2 := analysis.NewTable("vendor", "devices")
	vendorKeys := make([]string, 0, len(vendors))
	for vd := range vendors {
		vendorKeys = append(vendorKeys, vd)
	}
	sort.Strings(vendorKeys)
	for _, vd := range vendorKeys {
		tbl2.AddRow(vd, vendors[vd])
	}
	r.Tables = append(r.Tables, tbl, tbl2)
	r.setValue("detected_meters", float64(n))
	r.setValue("home_operators", float64(len(homes)))
	r.setValue("vendors", float64(len(vendors)))
	return r
}
