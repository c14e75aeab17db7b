package experiments

import (
	"fmt"
	"slices"

	"whereroam/internal/analysis"
	"whereroam/internal/dataset"
	"whereroam/internal/identity"
	"whereroam/internal/mccmnc"
	"whereroam/internal/signaling"
)

func init() {
	register("fed-smip", "Federation: per-site SMIP smart-meter plane (§4.4/§7)", runFedSMIP)
	register("fed-m2m", "Federation: schedule-consistent M2M transaction plane (§3/§6)", runFedM2M)
}

func runFedSMIP(s *Session) *Report {
	fed := s.FederationData()
	plane := s.FederationSMIP()
	r := &Report{
		ID:    "fed-smip",
		Title: "Per-site SMIP smart-meter plane",
		Paper: "§4.4/§7: every visited operator's roaming smart meters trace back to one NL home operator and two module vendors; the fleet partitions across sites because meters are stationary",
	}

	nlHome := mccmnc.MustParse("20404")
	tbl := analysis.NewTable("site", "native meters", "roaming meters", "catalog records", "NL-homed", "vendors")
	sitesOf := map[identity.DeviceID]int{}
	totalRoaming, totalNL := 0, 0
	allVendors := map[string]bool{}
	for _, site := range plane.Sites {
		sums := site.Catalog.SummariesWorkers(fed.GSMA, s.Workers)
		native, roaming, nl := 0, 0, 0
		vendors := map[string]bool{}
		for i := range sums {
			sum := &sums[i]
			if site.Native[sum.Device] {
				native++
				continue
			}
			roaming++
			sitesOf[sum.Device]++
			if sum.SIM == nlHome {
				nl++
			}
			if sum.InfoOK {
				vendors[sum.Info.Vendor] = true
				allVendors[sum.Info.Vendor] = true
			}
		}
		totalRoaming += roaming
		totalNL += nl
		tbl.AddRow(siteName(site.Host), native, roaming, len(site.Catalog.Records),
			analysis.Pct(float64(nl)/float64(max(roaming, 1))), len(vendors))
		key := "site_" + site.Host.Concat()
		r.setValue(key+"_native_meters", float64(native))
		r.setValue(key+"_roaming_meters", float64(roaming))
	}
	r.Tables = append(r.Tables, tbl)
	r.setValue("smip_sites", float64(len(plane.Sites)))
	if totalRoaming > 0 {
		r.setValue("nl_home_share", float64(totalNL)/float64(totalRoaming))
	}
	r.setValue("vendor_count", float64(len(allVendors)))

	// The plane-level exclusivity: stationary meters never tour, so
	// every fleet meter the schedule deployed must show up at exactly
	// one site.
	single := 0
	for _, n := range sitesOf {
		if n == 1 {
			single++
		}
	}
	if len(sitesOf) > 0 {
		r.setValue("meter_single_site_share", float64(single)/float64(len(sitesOf)))
		r.Notes = append(r.Notes, fmt.Sprintf(
			"%d fleet meters deployed across %d sites; %d observed at exactly one site",
			len(sitesOf), len(plane.Sites), single))
	}
	return r
}

// FederationM2MView is what a session keeps of the federated M2M plane
// (§3/§6): per-device transaction counts, every transaction already
// checked against the shared presence schedule. It never holds the
// transactions themselves.
type FederationM2MView struct {
	// hosts mirrors the federation's visited-MNO list.
	hosts []mccmnc.PLMN
	// devs holds one entry per fleet device, in fleet order; members
	// outside the M2M plane stay zero.
	devs []fedM2MCounts
	// siteTx[i*len(hosts)+j] counts fleet device i's transactions on
	// hosts[j].
	siteTx []int
}

// fedM2MCounts is one fleet device's fold of the federated M2M plane.
type fedM2MCounts struct {
	total, roamTx int
	// switches counts cancel-location legs, one per inter-network move.
	switches int
	// checked counts the other transactions; consistent, those on the
	// network the shared schedule names for their day.
	checked, consistent int
}

// newFederationM2MView folds fed's M2M plane per device; each device's
// fold writes only its own slots.
func newFederationM2MView(fed *dataset.FederationDataset) *FederationM2MView {
	nh := len(fed.Hosts)
	v := &FederationM2MView{
		hosts:  fed.Hosts,
		devs:   make([]fedM2MCounts, len(fed.Fleet)),
		siteTx: make([]int, len(fed.Fleet)*nh),
	}
	dataset.FoldFederationM2M(fed, func(i int, txs []signaling.Transaction) {
		c := &v.devs[i]
		c.total = len(txs)
		site := v.siteTx[i*nh : (i+1)*nh]
		for k := range txs {
			tx := &txs[k]
			if j := slices.Index(fed.Hosts, tx.Visited); j >= 0 {
				site[j]++
			}
			if tx.Roaming() {
				c.roamTx++
			}
			if tx.Procedure == signaling.ProcCancelLocation {
				c.switches++
				continue // cancels aim at the previous day's network by design
			}
			day := int(tx.Time.Sub(fed.Start).Hours() / 24)
			want := fed.Fleet[i].Home
			if sidx := fed.ScheduledSite(i, day); sidx >= 0 {
				want = fed.Hosts[sidx]
			}
			c.checked++
			if tx.Visited == want {
				c.consistent++
			}
		}
	})
	return v
}

// Transactions returns the number of transactions in the plane.
func (v *FederationM2MView) Transactions() int {
	n := 0
	for i := range v.devs {
		n += v.devs[i].total
	}
	return n
}

// Devices returns the number of fleet devices with at least one
// transaction in the plane.
func (v *FederationM2MView) Devices() int {
	n := 0
	for i := range v.devs {
		if v.devs[i].total > 0 {
			n++
		}
	}
	return n
}

func runFedM2M(s *Session) *Report {
	plane := s.FederationM2M()
	r := &Report{
		ID:    "fed-m2m",
		Title: "Schedule-consistent M2M transaction plane",
		Paper: "§3/§6: the platform-side signaling stream is a view of the same fleet the catalogs see — a device transacts only on the network the shared schedule puts it on, and inter-site moves surface as cancel-location/attach switch chains",
	}

	nh := len(plane.hosts)
	perSite := make([]int, nh)
	roamTx, switches := 0, 0
	consistent, checked := 0, 0
	for i := range plane.devs {
		c := &plane.devs[i]
		for j, n := range plane.siteTx[i*nh : (i+1)*nh] {
			perSite[j] += n
		}
		roamTx += c.roamTx
		switches += c.switches
		checked += c.checked
		consistent += c.consistent
	}
	n, devices := plane.Transactions(), plane.Devices()
	homeTx := n - roamTx

	tbl := analysis.NewTable("network", "transactions", "share")
	for j, h := range plane.hosts {
		tbl.AddRow(siteName(h), perSite[j], analysis.Pct(float64(perSite[j])/float64(max(n, 1))))
		r.setValue("site_"+h.Concat()+"_tx_share", float64(perSite[j])/float64(max(n, 1)))
	}
	tbl.AddRow("home networks", homeTx, analysis.Pct(float64(homeTx)/float64(max(n, 1))))
	r.Tables = append(r.Tables, tbl)

	r.setValue("m2m_transactions", float64(n))
	r.setValue("m2m_devices", float64(devices))
	r.setValue("roaming_tx_share", float64(roamTx)/float64(max(n, 1)))
	if devices > 0 {
		r.setValue("switches_per_device", float64(switches)/float64(devices))
	}
	if checked > 0 {
		r.setValue("schedule_consistency", float64(consistent)/float64(checked))
		r.Notes = append(r.Notes, fmt.Sprintf(
			"%d/%d non-cancel transactions sit on the exact network the shared schedule names", consistent, checked))
	}
	return r
}
