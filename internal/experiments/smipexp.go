package experiments

import (
	"whereroam/internal/analysis"
	"whereroam/internal/dataset"
	"whereroam/internal/identity"
	"whereroam/internal/radio"
)

func init() {
	register("fig11", "SMIP native vs roaming smart meters (§7.1)", runFig11)
}

// smipView is what a session keeps of the smart-meter dataset (§7):
// the window, the native cohort and fig11's per-device aggregates,
// folded once when the dataset is built. It never holds the daily
// records.
type smipView struct {
	Days   int
	Native map[identity.DeviceID]bool
	aggs   map[identity.DeviceID]*meterAgg
}

// meterAgg is one meter's activity over the window.
type meterAgg struct {
	activeDays int
	firstDay   int
	events     int
	failed     int
	flags      radio.RATSet
}

// newSMIPView folds ds's daily records into per-device aggregates.
func newSMIPView(ds *dataset.SMIPDataset) *smipView {
	aggs := map[identity.DeviceID]*meterAgg{}
	for i := range ds.Catalog.Records {
		rec := &ds.Catalog.Records[i]
		a := aggs[rec.Device]
		if a == nil {
			a = &meterAgg{firstDay: rec.Day}
			aggs[rec.Device] = a
		}
		a.activeDays++
		if rec.Day < a.firstDay {
			a.firstDay = rec.Day
		}
		a.events += rec.Events
		a.failed += rec.FailedEvents
		a.flags |= rec.RadioFlags
	}
	return &smipView{Days: ds.Days, Native: ds.Native, aggs: aggs}
}

// meterView returns the session's smipView, generating the SMIP dataset
// the first time.
func (s *Session) meterView() *smipView {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.smipView == nil {
		s.generateSMIP()
	}
	return s.smipView
}

func runFig11(s *Session) *Report {
	v := s.meterView()
	r := &Report{
		ID:    "fig11",
		Title: "SMIP device activity: native vs roaming",
		Paper: "native: 73% active the whole period (83% for the day-1 cohort); roaming: 50% active ≤5 days; roaming signaling ≈10× native per device-day; failures: ~10% of all devices, 35% of roaming; roaming 2G-only, native 2/3 on 3G only",
	}

	type cohort struct {
		days, daysDay1      []float64
		events, activeDays  float64
		withFail, n         int
		only2G, only3G, mix int
	}
	var native, roaming cohort
	//roamvet:maporder-ok the day-count slices feed analysis.NewECDF which sorts them; every other cohort field is a commutative integer(-valued) add
	for dev, a := range v.aggs {
		c := &roaming
		if v.Native[dev] {
			c = &native
		}
		c.n++
		c.days = append(c.days, float64(a.activeDays))
		if a.firstDay == 0 {
			c.daysDay1 = append(c.daysDay1, float64(a.activeDays))
		}
		//roamvet:floatfold-ok sums of integer-valued float64 terms far below 2^53 are exact, so addition order cannot change the result
		c.events += float64(a.events)
		//roamvet:floatfold-ok sums of integer-valued float64 terms far below 2^53 are exact, so addition order cannot change the result
		c.activeDays += float64(a.activeDays)
		if a.failed > 0 {
			c.withFail++
		}
		switch {
		case a.flags.Only(radio.RAT2G):
			c.only2G++
		case a.flags.Only(radio.RAT3G):
			c.only3G++
		default:
			c.mix++
		}
	}

	render := func(name string, c *cohort) {
		e := analysis.NewECDF(c.days)
		e1 := analysis.NewECDF(c.daysDay1)
		full := float64(v.Days)
		tbl := analysis.NewTable(name, "value")
		tbl.AddRow("devices", c.n)
		tbl.AddRow("active whole period", analysis.Pct(1-e.At(full-1)))
		tbl.AddRow("day-1 cohort whole period", analysis.Pct(1-e1.At(full-1)))
		tbl.AddRow("active ≤5 days", analysis.Pct(e.At(5)))
		tbl.AddRow("signaling msgs/device/day", c.events/c.activeDays)
		tbl.AddRow("devices with failures", analysis.Pct(float64(c.withFail)/float64(c.n)))
		tbl.AddRow("2G only", analysis.Pct(float64(c.only2G)/float64(c.n)))
		tbl.AddRow("3G only", analysis.Pct(float64(c.only3G)/float64(c.n)))
		r.Tables = append(r.Tables, tbl)
		prefix := name + "_"
		r.setValue(prefix+"full_period_share", 1-e.At(full-1))
		r.setValue(prefix+"day1_full_period_share", 1-e1.At(full-1))
		r.setValue(prefix+"le5_days_share", e.At(5))
		r.setValue(prefix+"signaling_per_day", c.events/c.activeDays)
		r.setValue(prefix+"fail_device_share", float64(c.withFail)/float64(c.n))
		r.setValue(prefix+"only2g_share", float64(c.only2G)/float64(c.n))
		r.setValue(prefix+"only3g_share", float64(c.only3G)/float64(c.n))
	}
	render("native", &native)
	render("roaming", &roaming)
	r.setValue("signaling_ratio",
		(roaming.events/roaming.activeDays)/(native.events/native.activeDays))
	allFail := float64(native.withFail+roaming.withFail) / float64(native.n+roaming.n)
	r.setValue("all_fail_device_share", allFail)
	return r
}
