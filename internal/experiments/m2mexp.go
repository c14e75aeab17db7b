package experiments

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"whereroam/internal/analysis"
	"whereroam/internal/dataset"
	"whereroam/internal/identity"
	"whereroam/internal/mccmnc"
	"whereroam/internal/signaling"
)

func init() {
	register("t1", "HMNO shares and platform footprint (§3.2)", runT1)
	register("fig2", "Share of M2M devices per visited country per HMNO", runFig2)
	register("fig3l", "CDF of signaling records per device", runFig3Left)
	register("fig3c", "Number of VMNOs used by roaming devices", runFig3Center)
	register("fig3r", "Inter-VMNO switches per device", runFig3Right)
}

// M2MView is what a session keeps of the platform plane (§3): the
// observation window and one aggregate per device that captured at
// least one transaction, in ascending device-ID order (the pinned
// order for sweeps whose output depends on visit order — crosstab
// insertion, for one). It never holds the transactions themselves.
type M2MView struct {
	// Days is the observation window in days.
	Days int
	aggs []m2mDeviceAgg
}

// m2mDeviceAgg is the per-device aggregate the §3 analyses share.
type m2mDeviceAgg struct {
	id      identity.DeviceID
	home    mccmnc.PLMN
	roaming bool
	total   int
	okCount int
	// roamTx counts the transactions on a network other than the
	// SIM's home network.
	roamTx int
	// visited lists the distinct visited networks in first-use order.
	visited  []mccmnc.PLMN
	switches int
	last     mccmnc.PLMN
	primary  string // ISO of the most-used visited country
}

// newM2MView folds the platform plane cfg describes into the
// per-device aggregates. Each device's fold writes only its own slot;
// the slots are compacted and ordered afterwards.
func newM2MView(cfg dataset.M2MConfig) *M2MView {
	aggs := make([]m2mDeviceAgg, cfg.Devices)
	dataset.FoldM2M(cfg, func(i int, truth dataset.M2MDeviceTruth, txs []signaling.Transaction) {
		if len(txs) > 0 {
			aggs[i] = aggregateDevice(truth, txs)
		}
	})
	aggs = slices.DeleteFunc(aggs, func(a m2mDeviceAgg) bool { return a.total == 0 })
	slices.SortStableFunc(aggs, func(a, b m2mDeviceAgg) int { return cmp.Compare(a.id, b.id) })
	return &M2MView{Days: cfg.Days, aggs: aggs}
}

// aggregateDevice folds one device's non-empty, time-ordered capture.
func aggregateDevice(truth dataset.M2MDeviceTruth, txs []signaling.Transaction) m2mDeviceAgg {
	a := m2mDeviceAgg{id: txs[0].Device, home: truth.Home, roaming: truth.Roaming, total: len(txs)}
	// Stack scratch sized past the most networks a profile draws (19):
	// one heap slice per device, the clone of visited.
	var visitedBuf [20]mccmnc.PLMN
	var usesBuf [20]int
	visited, uses := visitedBuf[:0], usesBuf[:0]
	for k := range txs {
		tx := &txs[k]
		if tx.Result.OK() {
			a.okCount++
		}
		if tx.Roaming() {
			a.roamTx++
		}
		v := slices.Index(visited, tx.Visited)
		if v < 0 {
			v = len(visited)
			visited = append(visited, tx.Visited)
			uses = append(uses, 0)
		}
		uses[v]++
		// Switch counting: CancelLocation marks the departure from a
		// VMNO; counting visited-network changes across the device's
		// time-ordered capture measures the same thing the paper reads
		// from its traces.
		if tx.Procedure != signaling.ProcCancelLocation {
			if !a.last.IsZero() && tx.Visited != a.last {
				a.switches++
			}
			a.last = tx.Visited
		}
	}
	a.visited = slices.Clone(visited)

	// The primary country is the most-used one, ties broken towards
	// the lexicographically first ISO; each country is summed at its
	// first network.
	var isoBuf [20]string
	isos := isoBuf[:0]
	for _, p := range visited {
		isos = append(isos, mccmnc.ISOByMCC(p.MCC))
	}
	bestN := -1
	for v, iso := range isos {
		if slices.Index(isos, iso) < v {
			continue
		}
		n := 0
		for w := v; w < len(isos); w++ {
			if isos[w] == iso {
				n += uses[w]
			}
		}
		if n > bestN || (n == bestN && iso < a.primary) {
			a.primary, bestN = iso, n
		}
	}
	return a
}

var hmnoNames = map[mccmnc.PLMN]string{
	mccmnc.MustParse("21407"):  "ES",
	mccmnc.MustParse("334020"): "MX",
	mccmnc.MustParse("722070"): "AR",
	mccmnc.MustParse("26201"):  "DE",
}

func runT1(s *Session) *Report {
	aggs := s.M2M().aggs
	r := &Report{
		ID:    "t1",
		Title: "HMNO shares and platform footprint",
		Paper: "ES 52.3% of devices over 77 countries/127 VMNOs; MX 42.2% (90% at home); AR 4.7%; DE ~1k devices/18 VMNOs; ES generates 81.8% of signaling, 92% of it while roaming",
	}

	type hmnoStat struct {
		devices   int
		signaling int
		roamTx    int
		countries map[string]bool
		vmnos     map[mccmnc.PLMN]bool
	}
	stats := map[string]*hmnoStat{}
	for i := range aggs {
		a := &aggs[i]
		name := hmnoNames[a.home]
		st := stats[name]
		if st == nil {
			st = &hmnoStat{countries: map[string]bool{}, vmnos: map[mccmnc.PLMN]bool{}}
			stats[name] = st
		}
		st.devices++
		st.signaling += a.total
		st.roamTx += a.roamTx
		for _, v := range a.visited {
			st.countries[mccmnc.ISOByMCC(v.MCC)] = true
			st.vmnos[v] = true
		}
	}
	totalDevices, totalSignaling := 0, 0
	for _, st := range stats {
		totalDevices += st.devices
		totalSignaling += st.signaling
	}

	tbl := analysis.NewTable("HMNO", "devices", "share", "countries", "VMNOs", "signaling share")
	for _, name := range []string{"ES", "MX", "AR", "DE"} {
		st := stats[name]
		if st == nil {
			continue
		}
		devShare := float64(st.devices) / float64(totalDevices)
		sigShare := float64(st.signaling) / float64(totalSignaling)
		tbl.AddRow(name, st.devices, devShare, len(st.countries), len(st.vmnos), sigShare)
		r.setValue(name+"_share", devShare)
		r.setValue(name+"_countries", float64(len(st.countries)))
		r.setValue(name+"_vmnos", float64(len(st.vmnos)))
		r.setValue(name+"_signaling_share", sigShare)
	}
	// ES roaming-signaling share: every platform transaction carries
	// its device's home network as the SIM.
	if es := stats["ES"]; es != nil {
		r.setValue("es_roaming_signaling_share", float64(es.roamTx)/float64(es.signaling))
	}
	r.Tables = append(r.Tables, tbl)
	return r
}

func runFig2(s *Session) *Report {
	aggs := s.M2M().aggs
	r := &Report{
		ID:    "fig2",
		Title: "Share of M2M devices per visited country per HMNO",
		Paper: "ES devices spread over ~77 countries; MX/AR ~90% in their home country; DE spread across many European VMNOs",
	}
	// Crosstab rows and columns keep insertion order, so the Add
	// sweep visits devices in the view's pinned device-ID order.
	ct := analysis.NewCrosstab()
	for i := range aggs {
		ct.Add(aggs[i].primary, hmnoNames[aggs[i].home], 1)
	}
	ct.SortRowsByTotal()

	tbl := analysis.NewTable("visited", "ES", "MX", "AR", "DE")
	rows := ct.Rows()
	const maxRows = 15
	for i, iso := range rows {
		if i >= maxRows {
			break
		}
		tbl.AddRow(iso,
			analysis.Pct(ct.ColShare(iso, "ES")),
			analysis.Pct(ct.ColShare(iso, "MX")),
			analysis.Pct(ct.ColShare(iso, "AR")),
			analysis.Pct(ct.ColShare(iso, "DE")))
	}
	r.Tables = append(r.Tables, tbl)

	// Countries hosting >= 0.1% of each HMNO's devices (the paper's
	// breakdown threshold).
	for _, hmno := range []string{"ES", "MX", "AR", "DE"} {
		total := ct.ColTotal(hmno)
		if total == 0 {
			continue
		}
		n := 0
		for _, iso := range rows {
			if ct.Get(iso, hmno)/total >= 0.001 {
				n++
			}
		}
		r.setValue(hmno+"_visited_countries", float64(n))
	}
	// Home-country share for MX (the paper's 90%-at-home finding).
	r.setValue("mx_home_share", ct.ColShare("MX", "MX"))
	r.setValue("ar_home_share", ct.ColShare("AR", "AR"))
	return r
}

func runFig3Left(s *Session) *Report {
	aggs := s.M2M().aggs
	r := &Report{
		ID:    "fig3l",
		Title: "CDF of signaling records per device",
		Paper: "mean ≈267 records; 97% of devices < 2000; max ≈130k (flooders); roaming median ≈10× native median",
	}
	var all, ok4g, roaming, native []float64
	for i := range aggs {
		a := &aggs[i]
		v := float64(a.total)
		all = append(all, v)
		if a.okCount > 0 {
			ok4g = append(ok4g, v)
		}
		if a.roaming {
			roaming = append(roaming, v)
		} else {
			native = append(native, v)
		}
	}
	eAll := analysis.NewECDF(all)
	eRoam := analysis.NewECDF(roaming)
	eNat := analysis.NewECDF(native)
	points := []float64{10, 50, 100, 267, 500, 1000, 2000, 10000, 100000}
	tbl := analysis.NewTable("records ≤", "all", "4G-ok", "roaming", "native")
	eOK := analysis.NewECDF(ok4g)
	for _, p := range points {
		tbl.AddRow(fmt.Sprintf("%.0f", p),
			analysis.Pct(eAll.At(p)), analysis.Pct(eOK.At(p)),
			analysis.Pct(eRoam.At(p)), analysis.Pct(eNat.At(p)))
	}
	r.Tables = append(r.Tables, tbl)
	r.setValue("mean_records", eAll.Mean())
	r.setValue("p_under_2000", eAll.At(2000))
	r.setValue("max_records", eAll.Max())
	r.setValue("roaming_median", eRoam.Median())
	r.setValue("native_median", eNat.Median())
	r.setValue("roaming_native_ratio", eRoam.Median()/eNat.Median())
	r.setValue("ok_device_share", float64(len(ok4g))/float64(len(all)))
	return r
}

func runFig3Center(s *Session) *Report {
	aggs := s.M2M().aggs
	r := &Report{
		ID:    "fig3c",
		Title: "Number of VMNOs used by roaming devices",
		Paper: "65% of roaming devices use one VMNO; >25% two; 5% three+; failed-only devices attempt up to 19",
	}
	counts := map[int]int{}
	roamers := 0
	maxV := 0
	for i := range aggs {
		a := &aggs[i]
		if !a.roaming {
			continue
		}
		roamers++
		n := len(a.visited)
		counts[n]++
		if n > maxV {
			maxV = n
		}
	}
	tbl := analysis.NewTable("VMNOs", "devices", "share")
	keys := make([]int, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		tbl.AddRow(k, counts[k], float64(counts[k])/float64(roamers))
	}
	r.Tables = append(r.Tables, tbl)
	three := 0
	for k, n := range counts {
		if k >= 3 {
			three += n
		}
	}
	r.setValue("share_1", float64(counts[1])/float64(roamers))
	r.setValue("share_2", float64(counts[2])/float64(roamers))
	r.setValue("share_3plus", float64(three)/float64(roamers))
	r.setValue("max_vmnos", float64(maxV))
	return r
}

func runFig3Right(s *Session) *Report {
	view := s.M2M()
	r := &Report{
		ID:    "fig3r",
		Title: "Inter-VMNO switches per device (devices with ≥2 VMNOs)",
		Paper: "~50% switch at most twice over 11 days; 20% switch at least daily; ~3% switch 100–3000 times",
	}
	var switches []float64
	for i := range view.aggs {
		a := &view.aggs[i]
		if !a.roaming || len(a.visited) < 2 {
			continue
		}
		switches = append(switches, float64(a.switches))
	}
	e := analysis.NewECDF(switches)
	tbl := analysis.NewTable("switches ≤", "share")
	for _, p := range []float64{1, 2, 5, 10, float64(view.Days), 50, 100, 1000, 3000} {
		tbl.AddRow(fmt.Sprintf("%.0f", p), analysis.Pct(e.At(p)))
	}
	r.Tables = append(r.Tables, tbl)
	r.setValue("share_le2", e.At(2))
	r.setValue("share_daily_plus", 1-e.At(float64(view.Days)-1))
	r.setValue("share_100plus", 1-e.At(99))
	r.setValue("max_switches", e.Max())
	return r
}
