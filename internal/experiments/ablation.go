package experiments

import (
	"math"
	"slices"

	"whereroam/internal/analysis"
	"whereroam/internal/core"
	"whereroam/internal/dataset"
	"whereroam/internal/geo"
	"whereroam/internal/mccmnc"
	"whereroam/internal/netsim"
	"whereroam/internal/rng"
	"whereroam/internal/signaling"
)

func init() {
	register("abl-classifier", "Ablation: classifier pipeline steps", runAblationClassifier)
	register("abl-gyration", "Ablation: time-weighted vs unweighted gyration", runAblationGyration)
	register("abl-policy", "Ablation: VMNO selection policy", runAblationPolicy)
}

// runAblationClassifier measures how much each pipeline stage
// contributes: keywords alone miss the no-APN devices (21% of the
// population per §4.3); the validated-APN step and the property
// closure recover them.
func runAblationClassifier(s *Session) *Report {
	v := s.view()
	r := &Report{
		ID:    "abl-classifier",
		Title: "Classifier steps ablation",
		Paper: "§4.3 argues APNs alone are insufficient (21% of devices carry no APN); the multi-step design is the contribution",
	}
	configs := []struct {
		name  string
		steps core.Steps
	}{
		{"keywords-only", core.Steps{}},
		{"validated-apns", core.Steps{ValidateAPNs: true}},
		{"full-pipeline", core.AllSteps},
	}
	tbl := analysis.NewTable("config", "m2m recall", "m2m precision", "abstained", "accuracy")
	for _, cfgCase := range configs {
		c := core.NewClassifier()
		c.Steps = cfgCase.steps
		res := c.ClassifyWorkers(v.Sums, s.Workers)
		val, err := core.Validate(res, v.Truth)
		if err != nil {
			r.Notes = append(r.Notes, "validation failed: "+err.Error())
			continue
		}
		tbl.AddRow(cfgCase.name, val.Recall(core.ClassM2M), val.Precision(core.ClassM2M),
			val.Abstained(core.ClassM2M), val.Accuracy())
		r.setValue(cfgCase.name+"_m2m_recall", val.Recall(core.ClassM2M))
		r.setValue(cfgCase.name+"_accuracy", val.Accuracy())
	}
	r.Tables = append(r.Tables, tbl)
	// The share of devices with no APN at all — the population that
	// motivates the closure step.
	noAPN := 0
	for i := range v.Sums {
		if len(v.Sums[i].APNs) == 0 {
			noAPN++
		}
	}
	r.setValue("no_apn_share", float64(noAPN)/float64(len(v.Sums)))
	return r
}

// runAblationGyration quantifies the §5.3 design choice of weighting
// sector visits by dwell time: without it, cell reselection inflates
// the apparent mobility of stationary devices.
func runAblationGyration(s *Session) *Report {
	r := &Report{
		ID:    "abl-gyration",
		Title: "Gyration weighting ablation",
		Paper: "§5.3 weights centroid and gyration by time per sector; reselection spikes otherwise read as movement",
	}
	// A synthetic stationary fleet with reselection jitter: the
	// weighted metric should keep ~all devices under 1 km; the
	// unweighted one should leak a visible fraction above it.
	host, _ := mccmnc.CountryByISO("GB")
	centre := geo.Point{Lat: host.Lat, Lon: host.Lon}
	var under1kmW, under1kmU int
	const n = 2000
	src := newSrc(s.Seed)
	for i := 0; i < n; i++ {
		visits := stationaryDay(src.SplitN("dev", uint64(i)), centre)
		if geo.Gyration(visits) <= 1 {
			under1kmW++
		}
		if geo.GyrationUnweighted(visits) <= 1 {
			under1kmU++
		}
	}
	tbl := analysis.NewTable("metric", "≤1 km share")
	tbl.AddRow("time-weighted", float64(under1kmW)/n)
	tbl.AddRow("unweighted", float64(under1kmU)/n)
	r.Tables = append(r.Tables, tbl)
	r.setValue("weighted_under_1km", float64(under1kmW)/n)
	r.setValue("unweighted_under_1km", float64(under1kmU)/n)
	return r
}

func newSrc(seed uint64) *rng.Source { return rng.New(seed).Split("ablation") }

// stationaryDay builds one stationary device's daily sector visits: a
// dominant home dwell plus a few brief reselection episodes ~2 km
// away. Weighted by dwell these devices are stationary; counted per
// visit they look mobile.
func stationaryDay(src *rng.Source, centre geo.Point) []geo.Visit {
	home := geo.Point{
		Lat: centre.Lat + (src.Float64()*2-1)*0.5,
		Lon: centre.Lon + (src.Float64()*2-1)*0.5,
	}
	visits := []geo.Visit{{At: home, Weight: 86000}}
	nJitter := 1 + src.Intn(3)
	for j := 0; j < nJitter; j++ {
		ang := 2 * math.Pi * src.Float64()
		d := 1.5 + src.Float64() // km
		visits = append(visits, geo.Visit{
			At: geo.Point{
				Lat: home.Lat + d*math.Sin(ang)/111.2,
				Lon: home.Lon + d*math.Cos(ang)/(111.2*math.Cos(home.Lat*math.Pi/180)),
			},
			Weight: 120, // a two-minute reselection episode
		})
	}
	return visits
}

// runAblationPolicy contrasts VMNO-selection policies by the load
// concentration they induce on visited networks.
func runAblationPolicy(s *Session) *Report {
	r := &Report{
		ID:    "abl-policy",
		Title: "VMNO selection policy ablation",
		Paper: "not a paper experiment: quantifies how the platform's VMNO choice spreads load across partner networks",
	}
	tbl := analysis.NewTable("policy", "distinct VMNOs", "top-VMNO share")
	for _, pol := range []netsim.SelectionPolicy{netsim.PolicyStrongest, netsim.PolicySticky, netsim.PolicyRotate} {
		cfg := dataset.DefaultM2MConfig()
		cfg.Seed = s.Seed
		cfg.Devices = s.scaled(3000)
		cfg.Policy = pol
		cfg.Workers = s.Workers
		perDev := make([][]vmnoLoad, cfg.Devices)
		dataset.FoldM2M(cfg, func(i int, _ dataset.M2MDeviceTruth, txs []signaling.Transaction) {
			perDev[i] = roamingLoad(txs)
		})
		load := map[mccmnc.PLMN]int{}
		total := 0
		for _, dev := range perDev {
			for _, l := range dev {
				load[l.vmno] += l.n
				total += l.n
			}
		}
		top := 0
		for _, n := range load {
			if n > top {
				top = n
			}
		}
		share := 0.0
		if total > 0 {
			share = float64(top) / float64(total)
		}
		tbl.AddRow(pol.String(), len(load), share)
		r.setValue(pol.String()+"_distinct_vmnos", float64(len(load)))
		r.setValue(pol.String()+"_top_share", share)
	}
	r.Tables = append(r.Tables, tbl)
	return r
}

// vmnoLoad is one device's roaming transactions on one visited network.
type vmnoLoad struct {
	vmno mccmnc.PLMN
	n    int
}

// roamingLoad folds one device's capture into its roaming load per
// visited network: nil for a device that never roamed, otherwise one
// exactly sized slice.
func roamingLoad(txs []signaling.Transaction) []vmnoLoad {
	// Stack scratch sized past the most networks a profile draws (19).
	var buf [20]vmnoLoad
	loads := buf[:0]
	for k := range txs {
		tx := &txs[k]
		if !tx.Roaming() {
			continue
		}
		if v := slices.IndexFunc(loads, func(l vmnoLoad) bool { return l.vmno == tx.Visited }); v >= 0 {
			loads[v].n++
		} else {
			loads = append(loads, vmnoLoad{vmno: tx.Visited, n: 1})
		}
	}
	if len(loads) == 0 {
		return nil
	}
	return slices.Clone(loads)
}
