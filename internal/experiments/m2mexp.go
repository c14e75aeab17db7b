package experiments

import (
	"fmt"
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

// m2mDeviceAgg is the per-device aggregate the §3 analyses share.
type m2mDeviceAgg struct {
	home      mccmnc.PLMN
	roaming   bool
	total     int
	okCount   int
	visited   map[mccmnc.PLMN]bool
	countries map[string]bool
	switches  int
	last      mccmnc.PLMN
	primary   string // ISO of the most-used visited country
	useCount  map[string]int
}

// m2mAggs returns the session's per-device M2M aggregate, built on
// first use under s.mu like view(). The runners over it only read it.
func (s *Session) m2mAggs() map[identity.DeviceID]*m2mDeviceAgg {
	ds := s.M2M()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m2mAgg == nil {
		s.m2mAgg = aggregateM2M(ds)
	}
	return s.m2mAgg
}

// aggregateM2M walks the time-sorted transaction stream once and
// produces per-device aggregates.
func aggregateM2M(ds *dataset.M2MDataset) map[identity.DeviceID]*m2mDeviceAgg {
	aggs := make(map[identity.DeviceID]*m2mDeviceAgg, len(ds.Truth))
	for i := range ds.Transactions {
		tx := &ds.Transactions[i]
		a := aggs[tx.Device]
		if a == nil {
			truth := ds.Truth[tx.Device]
			a = &m2mDeviceAgg{
				home:      truth.Home,
				roaming:   truth.Roaming,
				visited:   map[mccmnc.PLMN]bool{},
				countries: map[string]bool{},
				useCount:  map[string]int{},
			}
			aggs[tx.Device] = a
		}
		a.total++
		if tx.Result.OK() {
			a.okCount++
		}
		a.visited[tx.Visited] = true
		iso := mccmnc.ISOByMCC(tx.Visited.MCC)
		a.countries[iso] = true
		a.useCount[iso]++
		// Switch counting: CancelLocation marks the departure from a
		// VMNO; counting visited-network changes across the ordered
		// stream measures the same thing the paper reads from its
		// traces.
		if tx.Procedure != signaling.ProcCancelLocation {
			if !a.last.IsZero() && tx.Visited != a.last {
				a.switches++
			}
			a.last = tx.Visited
		}
	}
	//roamvet:maporder-ok each iteration writes only the ranged entry's own primary field; entries are visited exactly once
	for _, a := range aggs {
		best, bestN := "", -1
		//roamvet:maporder-ok argmax with a lexicographic tie-break ((n, -iso) is a total order), so the winner is visit-order-independent
		for iso, n := range a.useCount {
			if n > bestN || (n == bestN && iso < best) {
				best, bestN = iso, n
			}
		}
		a.primary = best
	}
	return aggs
}

// sortedAggDevices returns the aggregate map's device keys in
// ascending ID order — the pinned iteration order for sweeps whose
// output depends on visit order (crosstab insertion, for one).
func sortedAggDevices(aggs map[identity.DeviceID]*m2mDeviceAgg) []identity.DeviceID {
	devs := make([]identity.DeviceID, 0, len(aggs))
	for dev := range aggs {
		devs = append(devs, dev)
	}
	sort.Slice(devs, func(i, j int) bool { return devs[i] < devs[j] })
	return devs
}

var hmnoNames = map[mccmnc.PLMN]string{
	mccmnc.MustParse("21407"):  "ES",
	mccmnc.MustParse("334020"): "MX",
	mccmnc.MustParse("722070"): "AR",
	mccmnc.MustParse("26201"):  "DE",
}

func runT1(s *Session) *Report {
	ds := s.M2M()
	aggs := s.m2mAggs()
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
	//roamvet:maporder-ok per-HMNO fold of commutative effects only: integer adds and idempotent set-inserts, plus a first-visit ensure-exists — no counter depends on visit order
	for _, a := range aggs {
		name := hmnoNames[a.home]
		st := stats[name]
		if st == nil {
			st = &hmnoStat{countries: map[string]bool{}, vmnos: map[mccmnc.PLMN]bool{}}
			stats[name] = st
		}
		st.devices++
		st.signaling += a.total
		for c := range a.countries {
			st.countries[c] = true
		}
		for v := range a.visited {
			st.vmnos[v] = true
		}
	}
	totalDevices, totalSignaling := 0, 0
	for _, st := range stats {
		totalDevices += st.devices
		totalSignaling += st.signaling
	}
	// ES roaming-signaling share.
	esRoamTx, esTx := 0, 0
	for i := range ds.Transactions {
		tx := &ds.Transactions[i]
		if hmnoNames[tx.SIM] == "ES" {
			esTx++
			if tx.Roaming() {
				esRoamTx++
			}
		}
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
	r.setValue("es_roaming_signaling_share", float64(esRoamTx)/float64(esTx))
	r.Tables = append(r.Tables, tbl)
	return r
}

func runFig2(s *Session) *Report {
	aggs := s.m2mAggs()
	r := &Report{
		ID:    "fig2",
		Title: "Share of M2M devices per visited country per HMNO",
		Paper: "ES devices spread over ~77 countries; MX/AR ~90% in their home country; DE spread across many European VMNOs",
	}
	// Crosstab rows and columns keep insertion order, so the Add
	// sweep must visit devices in a pinned order — iterating the
	// aggs map directly would make tied rows land in per-run order
	// after the total sort (and columns in per-run order, full stop).
	ct := analysis.NewCrosstab()
	for _, dev := range sortedAggDevices(aggs) {
		a := aggs[dev]
		ct.Add(a.primary, hmnoNames[a.home], 1)
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
	aggs := s.m2mAggs()
	r := &Report{
		ID:    "fig3l",
		Title: "CDF of signaling records per device",
		Paper: "mean ≈267 records; 97% of devices < 2000; max ≈130k (flooders); roaming median ≈10× native median",
	}
	var all, ok4g, roaming, native []float64
	//roamvet:maporder-ok every sample slice feeds analysis.NewECDF, which sorts its input — the collected multisets are visit-order-invariant
	for _, a := range aggs {
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
	aggs := s.m2mAggs()
	r := &Report{
		ID:    "fig3c",
		Title: "Number of VMNOs used by roaming devices",
		Paper: "65% of roaming devices use one VMNO; >25% two; 5% three+; failed-only devices attempt up to 19",
	}
	counts := map[int]int{}
	roamers := 0
	maxV := 0
	for _, a := range aggs {
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
	ds := s.M2M()
	aggs := s.m2mAggs()
	r := &Report{
		ID:    "fig3r",
		Title: "Inter-VMNO switches per device (devices with ≥2 VMNOs)",
		Paper: "~50% switch at most twice over 11 days; 20% switch at least daily; ~3% switch 100–3000 times",
	}
	var switches []float64
	//roamvet:maporder-ok the switch counts feed analysis.NewECDF, which sorts its input — the collected multiset is visit-order-invariant
	for _, a := range aggs {
		if !a.roaming || len(a.visited) < 2 {
			continue
		}
		switches = append(switches, float64(a.switches))
	}
	e := analysis.NewECDF(switches)
	tbl := analysis.NewTable("switches ≤", "share")
	for _, p := range []float64{1, 2, 5, 10, float64(ds.Days), 50, 100, 1000, 3000} {
		tbl.AddRow(fmt.Sprintf("%.0f", p), analysis.Pct(e.At(p)))
	}
	r.Tables = append(r.Tables, tbl)
	r.setValue("share_le2", e.At(2))
	r.setValue("share_daily_plus", 1-e.At(float64(ds.Days)-1))
	r.setValue("share_100plus", 1-e.At(99))
	r.setValue("max_switches", e.Max())
	return r
}
