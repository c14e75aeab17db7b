package dataset

import (
	"fmt"
	"sort"
	"time"

	"whereroam/internal/catalog"
	"whereroam/internal/cdrs"
	"whereroam/internal/devices"
	"whereroam/internal/geo"
	"whereroam/internal/gsma"
	"whereroam/internal/identity"
	"whereroam/internal/mccmnc"
	"whereroam/internal/netsim"
	"whereroam/internal/rng"
	"whereroam/internal/store"
)

// FederationConfig parameterizes the multi-operator federation
// generator: one shared world, GSMA catalog and global roamer fleet,
// observed independently by every visited operator in Hosts.
type FederationConfig struct {
	Seed uint64
	// Hosts lists the visited MNOs ("sites"); every site observes the
	// shared fleet through its own capture pipeline. Empty means
	// DefaultFederationHosts.
	Hosts []mccmnc.PLMN
	// FleetDevices is the size of the shared global fleet — the
	// inbound-roaming population (mostly M2M, per Fig 6) that appears
	// in several sites' catalogs.
	FleetDevices int
	// NativePerSite is each site's local background population
	// (smartphones, feature phones and a thin M2M tail, all homed at
	// the site operator).
	NativePerSite int
	Days          int
	Start         time.Time
	// GSMASeed seeds the shared synthetic TAC catalog (every site
	// joins against the same database, as in the real world).
	GSMASeed uint64
	// AttachProb is the chance a fleet device also roams into each
	// allowed site beyond its anchor site; it controls how much the
	// sites' fleet views overlap.
	AttachProb float64
	// Workers bounds every worker pool of the build and its planes —
	// per-site emission, catalog aggregation and the M2M plane's fold;
	// the populations themselves are drawn serially. The usual contract
	// holds: values below one mean one worker per CPU and the dataset
	// is bit-identical for every worker count.
	Workers int
	// Streaming is unread: every site's catalog builds through the
	// per-worker builders the emission shards borrow. The field stays
	// only because the benchmark's serve fixture still sets it.
	Streaming bool
	// ArchiveDir, when non-empty, persists every site's CDR/xDR feed
	// to a segmented archive at ArchiveDir/site-<plmn> while that
	// site's catalog builds — the
	// persist-and-ingest fanout of internal/store, one store per
	// visited operator. The build panics on archive I/O errors,
	// mirroring the config-validation panics; a caller that must
	// report them archives a built dataset with ArchiveFederation.
	ArchiveDir string
	// ArchiveSegmentRecords caps records per archive segment; 0 means
	// store.DefaultSegmentRecords. Smaller segments mean more pruning
	// opportunities per query. The archived bytes are identical either
	// way; only the segment boundaries move.
	ArchiveSegmentRecords int
}

// DefaultFederationHosts is the standard three-site footprint: the
// paper's UK visited MNO plus the German and Swedish anchor networks
// of the world's IPX hub — three operators that all see the same
// global fleets.
func DefaultFederationHosts() []mccmnc.PLMN {
	return []mccmnc.PLMN{
		mccmnc.MustParse("23410"), // GB — the paper's visited MNO
		mccmnc.MustParse("26201"), // DE
		mccmnc.MustParse("24001"), // SE
	}
}

// DefaultFederationConfig returns the standard scaled-down
// three-site configuration.
func DefaultFederationConfig() FederationConfig {
	return FederationConfig{
		Seed:          1,
		Hosts:         DefaultFederationHosts(),
		FleetDevices:  3000,
		NativePerSite: 1500,
		Days:          10,
		Start:         time.Date(2019, 4, 5, 0, 0, 0, 0, time.UTC),
		GSMASeed:      1,
		AttachProb:    0.45,
	}
}

// ScheduleHome marks a day on which a fleet device is at its home
// network (or offline) in a presence schedule: it emits at no
// federation site that day.
const ScheduleHome = int8(-1)

// FederationDataset is the multi-operator dataset: the shared plane
// (world, GSMA catalog, fleet ground truth, presence schedule) plus
// one FederationSite per visited operator.
type FederationDataset struct {
	Hosts []mccmnc.PLMN
	Start time.Time
	Days  int
	GSMA  *gsma.DB
	World *netsim.World
	// Fleet is the shared global roamer population; the same devices
	// (same IMSI, IMEI, class, home operator) appear in every site
	// catalog they roam into.
	Fleet []devices.Device
	// Truth maps fleet device IDs to ground-truth classes.
	Truth map[identity.DeviceID]devices.Class
	// Schedule is the shared per-day presence schedule, aligned with
	// Fleet: Schedule[i][day] is the index into Hosts of the one site
	// device i is present at on that day, or ScheduleHome. Presence is
	// mutually exclusive by construction — a device abroad at one site
	// on a day emits nothing at every other site that day — and every
	// site's emission consults it.
	Schedule [][]int8
	// Sites holds one per-visited-MNO view, in Hosts order.
	Sites []*FederationSite

	// members retains the fleet's RNG substreams and schedules so the
	// federated SMIP/M2M plane generators can derive further
	// per-(device, plane) streams without rebuilding the fleet.
	members []fleetMember
	// cfg is the build configuration, retained for the plane
	// generators (scale, worker budget).
	cfg FederationConfig
}

// ScheduledSite returns the site index device i (in Fleet order) is
// present at on day, or ScheduleHome when it is at home or offline.
func (fed *FederationDataset) ScheduledSite(i, day int) int8 {
	return fed.Schedule[i][day]
}

// FederationSite is one visited operator's view of the shared world:
// its local population, the subset of the fleet that roamed in, and
// the devices-catalog its own capture pipeline built.
type FederationSite struct {
	// Index is the site's position in FederationConfig.Hosts.
	Index int
	// Host is the site's visited MNO.
	Host mccmnc.PLMN
	// Present marks the fleet devices that roamed into this site.
	Present map[identity.DeviceID]bool
	// Truth maps every locally observed device — natives and present
	// fleet — to its ground-truth class.
	Truth map[identity.DeviceID]devices.Class
	// Catalog is the devices-catalog the site's pipeline built.
	Catalog *catalog.Catalog
}

// fleetMember carries a fleet device plus the finalized RNG substream
// its per-site derivations split from, its provisioned-site mask and
// its per-day presence schedule.
type fleetMember struct {
	dev devices.Device
	src rng.Source
	// sites marks the sites the device's home operator provisioned it
	// into (anchor + AttachProb extras); the schedule allocates days
	// among them.
	sites []bool
	// sched maps each window day to the one site index the device is
	// present at, or ScheduleHome.
	sched []int8
}

// daysAt counts the device's scheduled days at site j. A provisioned
// site can end up with zero days (the schedule never toured it); the
// device is then absent from that site's catalog entirely.
func (m *fleetMember) daysAt(j int) int {
	n := 0
	for _, s := range m.sched {
		if int(s) == j {
			n++
		}
	}
	return n
}

// fleet composition: the inbound-roamer mix of Fig 6 — dominated by
// M2M, with a travelling-smartphone and feature-phone tail.
const (
	fleetShareSmart = 0.20
	fleetShareFeat  = 0.05
	fleetShareM2M   = 0.75
)

// fleetClassPick is the fleet's class sampler, built once (see
// mnoClassPick).
var fleetClassPick = rng.NewWeighted([]float64{fleetShareSmart, fleetShareFeat, fleetShareM2M})

// native composition per site: the H:H background population.
var nativeMix = []struct {
	class devices.Class
	share float64
}{
	{devices.ClassSmartphone, 0.80},
	{devices.ClassFeaturePhone, 0.10},
	{devices.ClassPOSTerminal, 0.04},
	{devices.ClassWearable, 0.03},
	{devices.ClassConnectedCar, 0.03},
}

// nativeBase is the MSIN base of site operators' consumer blocks.
const nativeBase = 1_000_000_000

// fleetPhoneBase is the MSIN base of the fleet's travelling phones.
// It is disjoint from nativeBase so a fleet phone homed at a site
// operator can never alias one of that site's own subscribers (the
// M2M fleet already lives in M2MBlockBase).
const fleetPhoneBase = 2_000_000_000

// siteKey folds a PLMN into the substream index of its site, so a
// site's native population and per-device emission streams depend
// only on (seed, host) — never on the host's list position. Note the
// fleet's site-presence draw is the one place the whole Hosts set
// matters: the anchor guarantees each device at least one allowed
// site, so changing the set re-draws presence (see generateFleet).
func siteKey(p mccmnc.PLMN) uint64 {
	return uint64(p.MCC)<<32 | uint64(p.MNC)<<8 | uint64(p.MNCLen)
}

// GenerateFederation synthesizes the multi-operator dataset.
//
// The build has two planes. The shared plane runs once: the world and
// GSMA catalog, then the fleet in one serial pass in fleet order
// (generateFleet: class and home draws, IMSI numbering, profile) —
// ending with each device's site-presence draw: an anchor site chosen
// among the sites its home operator can roam onto, plus each further
// allowed site with probability AttachProb.
//
// The site plane then builds one site after another: the site drafts
// its native population serially and walks all locally present
// devices — natives first, then the present fleet in fleet order —
// through the per-event measurement path (radio events and CDRs/xDRs),
// fanned out over internal/pipeline, into the per-worker catalog
// builders its emission shards borrow (see capture.build). Every
// random draw comes from a per-device or per-(device, site) substream,
// so the dataset is bit-identical across worker counts.
//
// Sites build in sequence because a site's builder state (grid,
// per-worker builders, observation list) is the build's
// largest transient: the heap peak is one site's builder state plus
// the fleet, whatever the number of sites. The price: an
// archive-writing build does not overlap one site's seal fsyncs with
// another site's CPU.
func GenerateFederation(cfg FederationConfig) *FederationDataset {
	cfg = validateFederationConfig(cfg)

	db := gsma.Synthesize(cfg.GSMASeed)
	world := netsim.DefaultWorld()
	root := rng.New(cfg.Seed).Split("federation")
	fleet := generateFleet(cfg, root, db, world)

	fed := &FederationDataset{
		Hosts:    append([]mccmnc.PLMN(nil), cfg.Hosts...),
		Start:    cfg.Start,
		Days:     cfg.Days,
		GSMA:     db,
		World:    world,
		Fleet:    make([]devices.Device, len(fleet)),
		Truth:    make(map[identity.DeviceID]devices.Class, len(fleet)),
		Schedule: make([][]int8, len(fleet)),
		Sites:    make([]*FederationSite, len(cfg.Hosts)),
		members:  fleet,
		cfg:      cfg,
	}
	for i := range fleet {
		fed.Fleet[i] = fleet[i].dev
		fed.Schedule[i] = fleet[i].sched
		fed.Truth[fleet[i].dev.ID] = fleet[i].dev.Class
	}
	for j := range cfg.Hosts {
		fed.Sites[j] = generateSite(cfg, j, root, db, fleet)
	}
	return fed
}

// validateFederationConfig normalizes the defaults and panics on the
// configurations the generator cannot honour.
func validateFederationConfig(cfg FederationConfig) FederationConfig {
	if len(cfg.Hosts) == 0 {
		cfg.Hosts = DefaultFederationHosts()
	}
	if cfg.FleetDevices <= 0 || cfg.Days <= 0 {
		panic("dataset: federation config needs positive FleetDevices and Days")
	}
	if cfg.NativePerSite < 0 {
		panic("dataset: federation config needs non-negative NativePerSite")
	}
	if cfg.AttachProb <= 0 {
		cfg.AttachProb = DefaultFederationConfig().AttachProb
	}
	if len(cfg.Hosts) > 127 {
		panic("dataset: federation supports at most 127 sites (the presence schedule stores site indices as int8)")
	}
	for i, h := range cfg.Hosts {
		for _, o := range cfg.Hosts[:i] {
			if h == o {
				panic(fmt.Sprintf("dataset: federation host %v listed twice", h))
			}
		}
	}
	return cfg
}

// generateFleet synthesizes the shared fleet in one serial pass in
// fleet order: each device draws its class and home operator, is
// numbered from its block by the device-order allocation, and is
// finished — profile, identity, site presence and the per-day
// schedule. The device's substream is not advanced past this point:
// per-site emission derives from it with read-only splits, so a site's
// build never perturbs another's draws.
func generateFleet(cfg FederationConfig, root *rng.Source, db *gsma.DB, world *netsim.World) []fleetMember {
	froot := root.Split("fleet")
	next := map[blockKey]uint64{}
	var mobs mobilitySlabs
	fleet := make([]fleetMember, cfg.FleetDevices)
	for i := range fleet {
		src := froot.SplitN("device", uint64(i))
		class := drawClass(src, fleetClassPick)
		home := roamerHome(src, class)
		base := uint64(fleetPhoneBase)
		if class.IsM2M() {
			base = M2MBlockBase
		}
		imsi := nextIMSI(next, home, base)

		prof, info := classProfile(src.Split("profile"), class, cfg.Days, mccmnc.PLMN{}, home, true, db)
		homeCountry, _ := mccmnc.CountryByMCC(home.MCC)
		mob := mobs.classMobility(src.Split("mobility"), class,
			geo.Point{Lat: homeCountry.Lat, Lon: homeCountry.Lon})
		dev := devices.Assemble(class, imsi, info, prof, mob, false)

		// Site presence: an anchor among the allowed sites plus each
		// further allowed site with probability AttachProb.
		ssrc := src.Split("sites")
		sites := make([]bool, len(cfg.Hosts))
		anchor := -1
		var buf [8]int // a few hosts fit the stack; more spill to the heap
		allowed := buf[:0]
		for j, host := range cfg.Hosts {
			if host != home && world.RoamingAllowed(home, host) {
				allowed = append(allowed, j)
			}
		}
		if len(allowed) > 0 {
			anchor = allowed[ssrc.Intn(len(allowed))]
			for _, j := range allowed {
				sites[j] = j == anchor || ssrc.Bool(cfg.AttachProb)
			}
		}
		sched := drawSchedule(src.Split("schedule"), class, sites, anchor, cfg.Days)
		fleet[i] = fleetMember{dev: dev, src: *src, sites: sites, sched: sched}
	}
	return fleet
}

// home-recall probabilities of the presence schedule: the chance a
// mobile fleet device spends a given day at home (or offline) instead
// of at its scheduled site. Phones travel in trips and are home-heavy;
// deployed M2M devices rarely leave the field; stationary verticals
// (meters, POS terminals) never move at all.
const (
	homeDayProbPhone = 0.20
	homeDayProbM2M   = 0.05
)

// scheduleStationary reports whether a class never relocates once
// deployed: its schedule is its anchor site every day, and the
// AttachProb extras its home provisioned are never toured.
func scheduleStationary(class devices.Class) bool {
	return class == devices.ClassSmartMeter || class == devices.ClassPOSTerminal
}

// drawSchedule allocates one fleet device's window days among its
// provisioned sites and home — the mutually exclusive replacement for
// independent per-site activity: each day maps to exactly one site
// index, or ScheduleHome.
//
// Stationary classes camp on their anchor for the whole window.
// Mobile classes tour their provisioned sites: the window splits into
// one contiguous sojourn per site, in a random order with random cut
// points (every provisioned site gets at least one day whenever the
// window is long enough), and each day carries a class-dependent
// home-recall probability. Every draw comes from the device's own
// substream, so the schedule is worker-count invariant and sites can
// consult it concurrently through read-only access.
func drawSchedule(src *rng.Source, class devices.Class, sites []bool, anchor, days int) []int8 {
	sched := make([]int8, days)
	for d := range sched {
		sched[d] = ScheduleHome
	}
	if anchor < 0 {
		return sched // no allowed site: the device never roams in
	}
	if scheduleStationary(class) {
		for d := range sched {
			sched[d] = int8(anchor)
		}
		return sched
	}

	var buf [8]int // a few sites fit the stack; more spill to the heap
	present := buf[:0]
	for j, ok := range sites {
		if ok {
			present = append(present, j)
		}
	}
	order := src.Perm(len(present))

	homeProb := homeDayProbM2M
	if !class.IsM2M() {
		homeProb = homeDayProbPhone
	}

	if len(present) >= days {
		// Degenerate short window: one day per site until days run out.
		for d := range sched {
			sched[d] = int8(present[order[d]])
		}
		return sched
	}

	// Random composition of the window into len(present) sojourns,
	// each at least one day: cut points are a sorted sample of the
	// interior day boundaries.
	cuts := src.Perm(days - 1)[:len(present)-1]
	sort.Ints(cuts)
	seg := 0
	for d := 0; d < days; d++ {
		sched[d] = int8(present[order[seg]])
		// Cut c ends its sojourn after day c; distinct sorted cuts in
		// [0, days-2] keep every sojourn at least one day long.
		if seg < len(cuts) && d == cuts[seg] {
			seg++
		}
	}
	for d := range sched {
		if src.Bool(homeProb) {
			sched[d] = ScheduleHome
		}
	}
	return sched
}

// generateSite builds one visited operator's population and catalog.
func generateSite(cfg FederationConfig, j int, root *rng.Source, db *gsma.DB, fleet []fleetMember) *FederationSite {
	host := cfg.Hosts[j]
	locals := siteLocals(cfg, j, root, db, fleet)
	site := &FederationSite{
		Index:   j,
		Host:    host,
		Present: make(map[identity.DeviceID]bool, len(locals)-cfg.NativePerSite),
		Truth:   make(map[identity.DeviceID]devices.Class, len(locals)),
	}
	for i := range locals {
		site.Truth[locals[i].dev.ID] = locals[i].dev.Class
		if i >= cfg.NativePerSite {
			site.Present[locals[i].dev.ID] = true
		}
	}

	// With ArchiveDir set, the site's CDR/xDR feed additionally fans
	// out to a per-site segmented archive in the same pass.
	var tee func(cdrs.Record)
	if cfg.ArchiveDir != "" {
		w, err := store.NewWriter(store.SiteDir(cfg.ArchiveDir, host.Concat()), siteMeta(cfg, host), cfg.ArchiveSegmentRecords)
		if err != nil {
			panic(fmt.Sprintf("dataset: federation archive: %v", err))
		}
		defer func() {
			if err := w.Close(); err != nil {
				panic(fmt.Sprintf("dataset: federation archive: %v", err))
			}
		}()
		tee = w.Sink()
	}
	site.Catalog = siteCapture(cfg, host).build(locals, tee)
	return site
}

// siteLocals draws site j's observation set: natives first, then the
// present fleet in fleet order — a deterministic list whose shard
// boundaries depend only on its length. Every draw comes from a pure
// split of root or of a fleet member's substream, so a second call
// with the same arguments returns identical devices with fresh emit
// streams (ArchiveFederation re-walks a retained dataset that way).
func siteLocals(cfg FederationConfig, j int, root *rng.Source, db *gsma.DB, fleet []fleetMember) []localDevice {
	host := cfg.Hosts[j]
	sroot := root.SplitN("site", siteKey(host))
	hostCountry, _ := mccmnc.CountryByMCC(host.MCC)
	centre := geo.Point{Lat: hostCountry.Lat, Lon: hostCountry.Lon}

	// The site's consumer block is the natives' only allocator, so
	// native i's MSIN is nativeBase + i with no allocation pass.
	nativeWeights := make([]float64, len(nativeMix))
	for i, m := range nativeMix {
		nativeWeights[i] = m.share
	}
	nativePick := rng.NewWeighted(nativeWeights)
	var mobs mobilitySlabs
	locals := make([]localDevice, cfg.NativePerSite, cfg.NativePerSite+len(fleet)/2)
	for i := range cfg.NativePerSite {
		src := sroot.SplitN("native", uint64(i))
		class := nativeMix[nativePick.DrawFrom(src)].class
		imsi := identity.IMSI{PLMN: host, MSIN: nativeBase + uint64(i)}
		prof, info := classProfile(src.Split("profile"), class, cfg.Days, host, host, false, db)
		mob := mobs.classMobility(src.Split("mobility"), class, centre)
		locals[i] = localDevice{
			dev:  devices.Assemble(class, imsi, info, prof, mob, false),
			emit: *src.Split("days"),
		}
	}

	// A fleet device joins the site only when the shared presence
	// schedule gives it at least one day here, and its emission is
	// gated to exactly those days — so a device abroad at another site
	// on day d contributes nothing to this catalog that day. Fleet
	// devices move by a site-local mobility model drawn from their
	// per-(device, site) substream.
	for i := range fleet {
		if fleet[i].daysAt(j) == 0 {
			continue
		}
		vsrc := fleet[i].src.SplitN("visit", siteKey(host))
		dev := fleet[i].dev
		dev.Mobility = mobs.classMobility(vsrc.Split("mobility"), dev.Class, centre)
		locals = append(locals, localDevice{
			dev:   dev,
			emit:  *vsrc.Split("days"),
			sched: fleet[i].sched,
			site:  j,
		})
	}
	return locals
}

// ArchiveFederation writes every site's CDR/xDR feed of fed to a
// segmented store at dir/site-<plmn> — the stores
// FederationConfig.ArchiveDir writes during the build, with the same
// records per device — without synthesizing the federation again: it
// re-derives each site's population from the retained fleet and
// re-walks the CDR/xDR plane alone (no radio sector lookups, no
// catalog builder). It returns the first NewWriter, Append or Close
// error, and closes every writer it opened.
func ArchiveFederation(fed *FederationDataset, dir string, segmentRecords int) error {
	cfg := fed.cfg
	root := rng.New(cfg.Seed).Split("federation")
	for j, host := range cfg.Hosts {
		w, err := store.NewWriter(store.SiteDir(dir, host.Concat()), siteMeta(cfg, host), segmentRecords)
		if err != nil {
			return fmt.Errorf("dataset: archiving site %v: %w", host, err)
		}
		siteCapture(cfg, host).archive(siteLocals(cfg, j, root, fed.GSMA, fed.members), w.Sink())
		// Append errors are sticky: Close reports the first of them.
		if err := w.Close(); err != nil {
			return fmt.Errorf("dataset: archiving site %v: %w", host, err)
		}
	}
	return nil
}

// siteMeta is the archive metadata of one federation site's store.
func siteMeta(cfg FederationConfig, host mccmnc.PLMN) store.Meta {
	return store.Meta{Host: host, Start: cfg.Start, Days: cfg.Days}
}

// siteCapture is one federation site's observation window.
func siteCapture(cfg FederationConfig, host mccmnc.PLMN) capture {
	return capture{host: host, start: cfg.Start, days: cfg.Days, workers: cfg.Workers}
}
