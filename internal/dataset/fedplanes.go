package dataset

import (
	"math"
	"time"

	"whereroam/internal/devices"
	"whereroam/internal/geo"
	"whereroam/internal/gsma"
	"whereroam/internal/identity"
	"whereroam/internal/mccmnc"
	"whereroam/internal/netsim"
	"whereroam/internal/pipeline"
	"whereroam/internal/radio"
	"whereroam/internal/rng"
	"whereroam/internal/signaling"
)

// fedM2MDevice is one fleet member participating in the M2M plane,
// with its index in the fleet and its plane-local RNG substream.
type fedM2MDevice struct {
	fleet  int
	member *fleetMember
	src    rng.Source
}

// fedM2MPopulation selects the fleet's M2M subset in fleet order and
// derives each device's plane substream — a read-only split off the
// member stream, so the plane never perturbs the catalog plane's
// draws (nor vice versa).
func fedM2MPopulation(fed *FederationDataset) []fedM2MDevice {
	devs := make([]fedM2MDevice, 0, len(fed.members))
	for i := range fed.members {
		m := &fed.members[i]
		if !m.dev.Class.IsM2M() {
			continue
		}
		devs = append(devs, fedM2MDevice{fleet: i, member: m, src: *m.src.Split("m2mplane")})
	}
	return devs
}

// emitFedM2MDevice walks one device's schedule and hands every
// transaction to sink in day order (stable time-sorted within each
// day). Every instant falls inside its own day, so the device's whole
// capture arrives in time order. The device attaches where the
// schedule first places it, re-attaches through a switch sequence
// whenever the scheduled network changes between consecutive days,
// and keeps a lognormal per-day keepalive budget of
// update-location/authentication procedures on whichever network the
// day's schedule names.
func emitFedM2MDevice(sink func(signaling.Transaction), fed *FederationDataset, d *fedM2MDevice, sc *txScratch) {
	m, src := d.member, &d.src
	home := m.dev.Home
	visitedAt := func(day int) mccmnc.PLMN {
		if s := m.sched[day]; s >= 0 {
			return fed.Hosts[s]
		}
		return home
	}
	result := func() signaling.Result {
		if src.Bool(0.02) { // sporadic transient failures (§3.3 tail)
			return signaling.ResultNetworkFailure
		}
		return signaling.ResultOK
	}
	// Per-device keepalive intensity, heavy-tailed like the platform
	// profiles (§3.2).
	lam := src.LogNormal(math.Log(6), 0.9)

	dayTxs := sc.day
	defer func() { sc.day = dayTxs }()
	prev := mccmnc.PLMN{}
	for day := 0; day < fed.Days; day++ {
		dayTxs = dayTxs[:0]
		dayStart := fed.Start.Add(time.Duration(day) * 24 * time.Hour)
		visited := visitedAt(day)

		// Attach on the first day, switch whenever the schedule moved
		// the device overnight — both inside the first hour, so the
		// session precedes the bulk of the day's keepalives.
		if day == 0 || visited != prev {
			t := dayStart.Add(time.Duration(src.Int63n(3600)) * time.Second)
			if day == 0 {
				dayTxs = netsim.AppendAttachSequence(dayTxs, m.dev.ID, t, home, visited, radio.RAT4G, result())
			} else {
				dayTxs = netsim.AppendSwitchSequence(dayTxs, m.dev.ID, t, home, prev, visited, radio.RAT4G, result())
			}
		}
		prev = visited

		for n := src.Poisson(lam); n > 0; n-- {
			t := dayStart.Add(time.Duration(src.Int63n(24*3600)) * time.Second)
			proc := signaling.ProcUpdateLocation
			if !src.Bool(0.55) {
				proc = signaling.ProcAuthentication
			}
			dayTxs = append(dayTxs, signaling.Transaction{
				Device: m.dev.ID, Time: t, SIM: home, Visited: visited,
				Procedure: proc, RAT: radio.RAT4G, Result: result(),
			})
		}
		sortByTime(&sc.order, dayTxs, transactionTime)
		for i := range dayTxs {
			sink(dayTxs[i])
		}
	}
}

// fedM2MWalk returns the plane's one per-device emission loop over
// devs: the device's capture fills the scratch buffer that emit
// receives per device. emitFedM2MDevice already captures in time
// order, so the buffer needs no sort.
func fedM2MWalk(fed *FederationDataset, devs []fedM2MDevice) deviceWalk[signaling.Transaction] {
	return func(sh pipeline.Shard, emit func(int, []signaling.Transaction)) {
		sc := txScratchPool.Get().(*txScratch)
		defer txScratchPool.Put(sc)
		for i := sh.Lo; i < sh.Hi; i++ {
			sc.buf = sc.buf[:0]
			emitFedM2MDevice(sc.add, fed, &devs[i], sc)
			emit(i, sc.buf)
		}
	}
}

// FoldFederationM2M walks the federated §3/§6 transaction plane: the
// control-plane signaling the fleet's M2M devices generate across the
// whole federation, consistent with the shared presence schedule —
// every transaction's visited network is the one site the device is
// scheduled at that day (or its home network on home days), and
// inter-site moves surface as the paper's cancel-location/attach
// switch sequences. The plane is never materialized or globally
// sorted: fold(i, txs) is called once for every M2M fleet member, i
// indexing fed.Fleet, with the device's transactions in time order,
// bit-identical at every worker count. Calls for distinct devices run
// concurrently, so fold may write only state owned by i; txs is valid
// only during the call.
func FoldFederationM2M(fed *FederationDataset, fold func(i int, txs []signaling.Transaction)) {
	devs := fedM2MPopulation(fed)
	foldShards(len(devs), fed.cfg.Workers, fedM2MWalk(fed, devs), func(k int, txs []signaling.Transaction) {
		fold(devs[k].fleet, txs)
	})
}

// FederationSMIP is the federated §7 smart-meter plane: one
// meters-only SMIPDataset per visited operator, all provisioned from
// the same shared fleet. Each site's view combines its own native
// meter deployment (dedicated IMSI range, §4.4) with the fleet's
// smart meters the presence schedule deployed there — stationary
// devices, so each fleet meter appears at exactly one site for the
// whole window.
type FederationSMIP struct {
	// Hosts mirrors the federation's visited-MNO list.
	Hosts []mccmnc.PLMN
	// Sites holds one per-site smart-meter dataset, in Hosts order.
	Sites []*SMIPDataset
}

// GenerateFederationSMIP synthesizes the federated smart-meter plane
// from an already-built federation dataset. Each site's catalog is
// built through the per-event measurement path and is bit-identical
// across worker counts, exactly like the federation's main site
// catalogs. Nothing is archived: the plane is a derived view, not a
// second feed.
func GenerateFederationSMIP(fed *FederationDataset) *FederationSMIP {
	// The shared root is a pure function of the seed, so the plane
	// derives its site substreams without the dataset retaining it.
	root := rng.New(fed.cfg.Seed).Split("federation")

	plane := &FederationSMIP{
		Hosts: fed.Hosts,
		Sites: make([]*SMIPDataset, len(fed.Hosts)),
	}
	// One site at a time, like the main site catalogs: each site's walk
	// already fans out over the worker pool.
	for j := range fed.Hosts {
		plane.Sites[j] = generateSMIPSite(fed, root, j)
	}
	return plane
}

// generateSMIPSite builds one visited operator's smart-meter view:
// native meters in the host's dedicated IMSI block plus the fleet
// meters scheduled at this site.
func generateSMIPSite(fed *FederationDataset, root *rng.Source, j int) *SMIPDataset {
	cfg := fed.cfg
	host := cfg.Hosts[j]
	sroot := root.SplitN("site", siteKey(host)).Split("smipplane")
	hostCountry, _ := mccmnc.CountryByMCC(host.MCC)
	centre := geo.Point{Lat: hostCountry.Lat, Lon: hostCountry.Lon}

	ds := &SMIPDataset{
		Host:   host,
		Start:  cfg.Start,
		Days:   cfg.Days,
		GSMA:   fed.GSMA,
		Native: make(map[identity.DeviceID]bool, cfg.NativePerSite),
		NBIoT:  map[identity.DeviceID]bool{},
	}

	// Native cohort, from per-meter substreams. The site's dedicated
	// block is the cohort's only allocator, so meter i's MSIN is
	// SMIPNativeBase + i with no allocation pass.
	var mobs mobilitySlabs
	locals := make([]localDevice, cfg.NativePerSite)
	for i := range locals {
		src := sroot.SplitN("meter", uint64(i))
		imsi := identity.IMSI{PLMN: host, MSIN: SMIPNativeBase + uint64(i)}
		prof := devices.SmartMeterNativeProfile(src.Split("profile"), cfg.Days, host)
		info := fed.GSMA.Pick(src.Split("tac"), gsma.ArchM2MModule)
		mob := mobs.stationaryAt(src.Split("mob"), centre, 150)
		locals[i] = localDevice{
			dev:  devices.Assemble(devices.ClassSmartMeter, imsi, info, prof, mob, false),
			emit: *src.Split("days"),
		}
	}
	for i := range locals {
		ds.Devices = append(ds.Devices, locals[i].dev)
		ds.Native[locals[i].dev.ID] = true
	}

	// Fleet meters scheduled here, in fleet order. Stationary classes
	// camp on their anchor, so the schedule gate is all-or-nothing per
	// site — but it is still consulted, keeping the plane correct if
	// the schedule model ever grows mobile meters.
	for i := range fed.members {
		m := &fed.members[i]
		if m.dev.Class != devices.ClassSmartMeter || m.daysAt(j) == 0 {
			continue
		}
		vsrc := m.src.SplitN("smipvisit", siteKey(host))
		dev := m.dev
		dev.Mobility = mobs.stationaryAt(vsrc.Split("mob"), centre, 150)
		ds.Devices = append(ds.Devices, dev)
		ds.Native[dev.ID] = false
		locals = append(locals, localDevice{
			dev:   dev,
			emit:  *vsrc.Split("days"),
			sched: m.sched,
			site:  j,
		})
	}

	ds.NativeRange = SMIPNativeRange(host, uint64(cfg.NativePerSite))
	ds.Catalog = siteCapture(cfg, host).build(locals, nil)
	return ds
}
