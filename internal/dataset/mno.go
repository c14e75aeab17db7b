package dataset

import (
	"sort"
	"sync"
	"time"

	"whereroam/internal/apn"
	"whereroam/internal/catalog"
	"whereroam/internal/core"
	"whereroam/internal/devices"
	"whereroam/internal/geo"
	"whereroam/internal/gsma"
	"whereroam/internal/identity"
	"whereroam/internal/mccmnc"
	"whereroam/internal/mobility"
	"whereroam/internal/pipeline"
	"whereroam/internal/rng"
)

// MNOConfig parameterizes the visited-MNO dataset generator.
type MNOConfig struct {
	Seed    uint64
	Devices int       // distinct devices across the window (paper: 39.6M)
	Days    int       // observation window (paper: 22)
	Start   time.Time // window start (paper: 2019-04-05)
	Host    mccmnc.PLMN
	// GSMASeed seeds the synthetic TAC catalog (kept separate so the
	// same catalog can be shared across datasets).
	GSMASeed uint64
	// Workers bounds GenerateMNO's worker pool; values below one mean
	// one worker per CPU. The generated dataset is bit-identical for
	// every worker count (per-device RNG substreams, shard-ordered
	// merge). StreamMNO emits on one producer and ignores it.
	Workers int
	// TransparencyAdoption is the probability that a home operator
	// publishes IR.88 declarations for its M2M IMSI ranges (§1: the
	// GSMA PRD is binding but adoption in the wild is partial). Zero
	// disables transparency.
	TransparencyAdoption float64
}

// DefaultMNOConfig returns the standard scaled-down configuration.
func DefaultMNOConfig() MNOConfig {
	return MNOConfig{
		Seed:                 1,
		Devices:              30000,
		Days:                 22,
		Start:                time.Date(2019, 4, 5, 0, 0, 0, 0, time.UTC),
		Host:                 mccmnc.MustParse("23410"),
		GSMASeed:             1,
		TransparencyAdoption: 0.6,
	}
}

// MVNO PLMNs: virtual operators riding the host's radio network.
// They hold their own network codes but appear in no sector grid —
// which is why they are not in the mccmnc operator registry.
var (
	MVNO1 = mccmnc.PLMN{MCC: 234, MNC: 26, MNCLen: 2}
	MVNO2 = mccmnc.PLMN{MCC: 234, MNC: 38, MNCLen: 2}
)

// MNODataset is the §4 dataset: ground-truth devices plus the daily
// devices-catalog the operator-side pipeline would have built.
type MNODataset struct {
	Host    mccmnc.PLMN
	Start   time.Time
	Days    int
	GSMA    *gsma.DB
	Devices []devices.Device
	Catalog *catalog.Catalog
	// Truth maps device IDs to ground-truth classes.
	Truth map[identity.DeviceID]devices.Class
	// Transparency is the IR.88 registry the declaring home operators
	// published; Declared holds the capture-time verdict per device
	// (IMSIs are visible at attach, before anonymization).
	Transparency *core.Registry
	Declared     map[identity.DeviceID]bool
}

// MVNOs returns the virtual operators riding the host network —
// the set a Labeler needs to tell V:H from N:H.
func (ds *MNODataset) MVNOs() []mccmnc.PLMN {
	return []mccmnc.PLMN{MVNO1, MVNO2}
}

// population composition (§4.2/§4.3/§5): cumulative shares over the
// window.
const (
	shareSmart = 0.62
	shareFeat  = 0.08
	shareM2M   = 0.30 // classifier splits this into m2m and m2m-maybe

	inboundSmart = 0.121 // Fig 6: share of each class that roams in
	inboundFeat  = 0.064
	inboundM2M   = 0.747

	nativeMNOShare = 0.59 // H vs V split of native devices (≈48:33)

	nationalShare = 0.005 // N:H national roamers
	outboundProb  = 0.03  // native smartphones traveling abroad
)

// m2m subclass mix within the m2m umbrella.
var m2mMix = []struct {
	class devices.Class
	share float64
}{
	{devices.ClassSmartMeter, 0.45},
	{devices.ClassAssetTracker, 0.18},
	{devices.ClassPOSTerminal, 0.17},
	{devices.ClassWearable, 0.14},
	{devices.ClassConnectedCar, 0.06},
}

// homeCountryTable gives inbound-roamer home countries per class
// (Fig 5: top-3 NL/SE/ES ≈60% overall, ≈83% for m2m, 17% for
// smartphones, 35% for feature phones).
type countryWeight struct {
	iso string
	w   float64
}

// homeTable is a home-country table ready to draw from: its weighted
// sampler and each row's operators are built once, not on every draw.
type homeTable struct {
	pick *rng.Weighted
	rows []homeRow
}

type homeRow struct {
	iso string
	ops []mccmnc.Operator
}

func newHomeTable(table []countryWeight) *homeTable {
	t := &homeTable{rows: make([]homeRow, len(table))}
	weights := make([]float64, len(table))
	for i, cw := range table {
		weights[i] = cw.w
		ops := mccmnc.OperatorsIn(cw.iso)
		if len(ops) == 0 {
			// Unregistered tail entries fall back to NL (harmless: only
			// reachable via zero-weight rows).
			ops = mccmnc.OperatorsIn("NL")
		}
		t.rows[i] = homeRow{iso: cw.iso, ops: ops}
	}
	t.pick = rng.NewWeighted(weights)
	return t
}

var smartHomes = newHomeTable([]countryWeight{
	{"FR", 0.09}, {"DE", 0.08}, {"ES", 0.07}, {"IE", 0.07}, {"US", 0.07},
	{"IT", 0.07}, {"PL", 0.06}, {"NL", 0.06}, {"RO", 0.05}, {"SE", 0.04},
	{"PT", 0.04}, {"AU", 0.03}, {"IN", 0.03}, {"CN", 0.03}, {"CA", 0.03},
	{"DK", 0.03}, {"NO", 0.03}, {"BE", 0.03}, {"CH", 0.03}, {"GR", 0.02},
	{"JP", 0.02}, {"BR", 0.02},
})

var featHomes = newHomeTable([]countryWeight{
	{"ES", 0.15}, {"NL", 0.12}, {"RO", 0.12}, {"PL", 0.10}, {"SE", 0.08},
	{"IN", 0.08}, {"TR", 0.07}, {"EG", 0.05}, {"MA", 0.05}, {"UA", 0.05},
	{"NG", 0.04}, {"PK", 0.0}, {"FR", 0.04}, {"DE", 0.03}, {"IT", 0.02},
})

// m2m homes are per subclass: meters all come from NL (§4.4), the
// platform verticals from ES/SE, cars from DE.
var m2mHomes = map[devices.Class]*homeTable{
	devices.ClassSmartMeter:   newHomeTable([]countryWeight{{"NL", 1.0}}),
	devices.ClassPOSTerminal:  newHomeTable([]countryWeight{{"SE", 0.50}, {"ES", 0.30}, {"DE", 0.05}, {"FR", 0.05}, {"IT", 0.05}, {"BE", 0.05}}),
	devices.ClassAssetTracker: newHomeTable([]countryWeight{{"ES", 0.50}, {"SE", 0.30}, {"NL", 0.05}, {"FR", 0.05}, {"PL", 0.05}, {"CZ", 0.05}}),
	devices.ClassWearable:     newHomeTable([]countryWeight{{"ES", 0.40}, {"SE", 0.30}, {"NL", 0.10}, {"US", 0.05}, {"FR", 0.05}, {"DE", 0.05}, {"IE", 0.05}}),
	devices.ClassConnectedCar: newHomeTable([]countryWeight{{"DE", 0.60}, {"SE", 0.10}, {"ES", 0.10}, {"FR", 0.05}, {"IT", 0.05}, {"AT", 0.05}, {"CZ", 0.05}}),
}

// nlMeterHome is the one NL operator smart meters concentrate on (§4.4).
var nlMeterHome = mccmnc.MustParse("20404")

func drawHome(src *rng.Source, table *homeTable) mccmnc.PLMN {
	row := &table.rows[table.pick.DrawFrom(src)]
	// Smart meters concentrate on one specific NL operator (§4.4).
	if row.iso == "NL" {
		return nlMeterHome
	}
	return row.ops[src.Intn(len(row.ops))].PLMN
}

// mnoWalk is everything GenerateMNO and StreamMNO share: the dataset
// constants, the IR.88 registry (it derives from the block totals
// alone, so it exists before the first device does) and the serial
// IMSI allocator device numbers its population from.
type mnoWalk struct {
	cfg    MNOConfig
	db     *gsma.DB
	root   *rng.Source
	centre geo.Point
	// hostOps are the host country's operators, the national roamers'
	// homes.
	hostOps []mccmnc.Operator
	next    map[blockKey]uint64
	reg     *core.Registry
}

func newMNOWalk(cfg MNOConfig) *mnoWalk {
	if cfg.Devices <= 0 || cfg.Days <= 0 {
		panic("dataset: MNO config needs positive Devices and Days")
	}
	root := rng.New(cfg.Seed).Split("mno")
	hostCountry, _ := mccmnc.CountryByMCC(cfg.Host.MCC)
	w := &mnoWalk{
		cfg:     cfg,
		db:      gsma.Synthesize(cfg.GSMASeed),
		root:    root,
		centre:  geo.Point{Lat: hostCountry.Lat, Lon: hostCountry.Lon},
		hostOps: mccmnc.OperatorsIn(hostCountry.ISO),
	}

	// The registry declares each home's whole M2M block, so it needs
	// the block totals before the first device is numbered: replay the
	// cheap draft draws through a throwaway allocator.
	totals := map[blockKey]uint64{}
	for i := range cfg.Devices {
		d := w.draft(i)
		nextIMSI(totals, d.home, d.base)
	}
	w.next = make(map[blockKey]uint64, len(totals))
	w.reg = transparencyRegistry(cfg.TransparencyAdoption, root.Split("ir88"), totals)
	return w
}

// device synthesizes device i: it is drafted from its own RNG
// substream, numbered from the walk's allocator, finished with its
// mobility model out of mobs, and returned with its capture-time IR.88
// verdict (IMSIs are visible at attach, before anonymization) and the
// substream its daily records draw from. Devices must be synthesized
// once each, in index order: numbering is the serial allocation.
func (w *mnoWalk) device(i int, mobs *mobilitySlabs) (dev devices.Device, declared bool, days rng.Source) {
	d := w.draft(i)
	imsi := nextIMSI(w.next, d.home, d.base)
	prof, info := classProfile(d.src.Split("profile"), d.class, w.cfg.Days, w.cfg.Host, d.home, d.inbound, w.db)
	mob := mobs.classMobility(d.src.Split("mobility"), d.class, w.centre)
	dev = devices.Assemble(d.class, imsi, info, prof, mob, d.mvno)
	return dev, w.reg.MatchIMSI(imsi), *d.src.Split("days")
}

// GenerateMNO synthesizes the visited-MNO dataset: one serial pass
// synthesizes the devices in index order, then their daily records
// fan out over cfg.Workers goroutines (emitCatalog). Every random draw
// comes from a per-device substream and shard boundaries do not depend
// on the worker count, so the output is bit-identical for any worker
// count.
func GenerateMNO(cfg MNOConfig) *MNODataset {
	w := newMNOWalk(cfg)
	devs := make([]devices.Device, cfg.Devices)
	days := make([]rng.Source, cfg.Devices)
	ds := &MNODataset{
		Host:         cfg.Host,
		Start:        cfg.Start,
		Days:         cfg.Days,
		GSMA:         w.db,
		Devices:      devs,
		Truth:        make(map[identity.DeviceID]devices.Class, cfg.Devices),
		Transparency: w.reg,
		Declared:     map[identity.DeviceID]bool{},
	}
	var mobs mobilitySlabs
	for i := range devs {
		var declared bool
		devs[i], declared, days[i] = w.device(i, &mobs)
		ds.Truth[devs[i].ID] = devs[i].Class
		if declared {
			ds.Declared[devs[i].ID] = true
		}
	}
	ds.Catalog = emitCatalog(cfg.Host, cfg.Start, cfg.Days, cfg.Workers, devs, days)
	return ds
}

// streamMNODepth is StreamMNO's producer-to-sink window. In-flight
// items are the only per-population state the stream holds, so the
// window bounds its working set; 64 items, about four devices with
// their rows, let the producer run on through the sink's buffered
// writes and flushes.
const streamMNODepth = 64

// MNOSink receives StreamMNO's output. Both callbacks are optional
// (nil skips the plane); they run on the calling goroutine, in the
// exact order GenerateMNO materializes: devices in device-index order,
// each followed by its daily catalog records in day order. A sink that
// stalls blocks the producer through the window — backpressure, not
// buffering.
type MNOSink struct {
	// Device receives each synthesized device with its capture-time
	// IR.88 verdict (the MNODataset.Declared entry).
	Device func(dev devices.Device, declared bool)
	// Record receives the device's daily catalog records.
	Record func(rec catalog.DailyRecord)
}

// MNOStream summarizes a StreamMNO run: the dataset-level constants of
// the equivalent MNODataset minus every per-device container.
type MNOStream struct {
	Host  mccmnc.PLMN
	Start time.Time
	Days  int
	GSMA  *gsma.DB
	// Transparency is the IR.88 registry the declaring home operators
	// published — the materialized dataset's registry.
	Transparency *core.Registry
	// Devices and Records count what the sink was offered.
	Devices int
	Records int64
}

// mnoItem is one element of StreamMNO's window: a device announcement
// or one of its daily records.
type mnoItem struct {
	dev      devices.Device
	declared bool
	rec      catalog.DailyRecord
	isRec    bool
}

// StreamMNO delivers GenerateMNO's population to sink device by device
// instead of materializing it: one producer goroutine synthesizes each
// device in index order and emits its daily records right after it
// into a bounded window that the caller drains, so the sink observes
// exactly the order GenerateMNO collects, and collecting it reproduces
// MNODataset.Devices and Catalog.Records bit for bit. The producer
// overlaps the sink; cfg.Workers is not read. Memory is bounded by
// the window and the IMSI allocator's per-block counters — never by
// cfg.Devices.
func StreamMNO(cfg MNOConfig, sink MNOSink) *MNOStream {
	w := newMNOWalk(cfg)
	out := &MNOStream{
		Host:         cfg.Host,
		Start:        cfg.Start,
		Days:         cfg.Days,
		GSMA:         w.db,
		Transparency: w.reg,
		Devices:      cfg.Devices,
	}
	items := make(chan mnoItem, streamMNODepth)
	// A producer panic closes the window, so the drain ends before the
	// panic is re-raised on the caller.
	done := make(chan any, 1)
	go func() {
		defer func() {
			p := recover()
			close(items)
			done <- p
		}()
		var mobs mobilitySlabs
		var scratch dayScratch
		record := func(rec catalog.DailyRecord) { items <- mnoItem{rec: rec, isRec: true} }
		for i := range cfg.Devices {
			dev, declared, days := w.device(i, &mobs)
			items <- mnoItem{dev: dev, declared: declared}
			emitDeviceDays(&days, cfg.Host, cfg.Start, cfg.Days, record, &dev, &scratch)
		}
	}()
	for it := range items {
		if it.isRec {
			out.Records++
			if sink.Record != nil {
				sink.Record(it.rec)
			}
			continue
		}
		if sink.Device != nil {
			sink.Device(it.dev, it.declared)
		}
	}
	if p := <-done; p != nil {
		panic(p)
	}
	return out
}

// M2MBlockBase is the MSIN base of foreign operators' dedicated M2M
// IMSI blocks.
const M2MBlockBase = 6_000_000_000

// transparencyRegistry builds the IR.88 registry from the block
// totals of the serial allocation: each home with a dedicated M2M block adopts
// with the given probability (a per-home draw keyed by its PLMN, so
// the verdict never depends on iteration order) and declares exactly
// the range it allocated.
func transparencyRegistry(adoption float64, src *rng.Source, totals map[blockKey]uint64) *core.Registry {
	reg := core.NewRegistry()
	if adoption <= 0 {
		return reg
	}
	var homes []mccmnc.PLMN
	for k := range totals {
		if k.base == M2MBlockBase {
			homes = append(homes, k.home)
		}
	}
	sort.Slice(homes, func(i, j int) bool {
		return siteKey(homes[i]) < siteKey(homes[j])
	})
	for _, home := range homes {
		key := uint64(home.MCC)<<16 | uint64(home.MNC)
		if !src.SplitN("adopt", key).Bool(adoption) {
			continue
		}
		n := totals[blockKey{home: home, base: M2MBlockBase}]
		reg.Add(core.Declaration{
			Home:   home,
			Ranges: []identity.IMSIRange{{PLMN: home, Lo: M2MBlockBase, Hi: M2MBlockBase + n - 1}},
		})
	}
	return reg
}

// Class samplers, built once like the home tables: the MNO
// population's class mix, and the m2m subclass split every draft
// shares (the fleet's class mix sits with its composition). A sampler
// is stateless per draw (DrawFrom consumes the device's stream, not its
// own), so every walk shares them.
var (
	mnoClassPick = rng.NewWeighted([]float64{shareSmart, shareFeat, shareM2M})
	m2mPick      = newM2MPick()
)

func newM2MPick() *rng.Weighted {
	weights := make([]float64, len(m2mMix))
	for i, m := range m2mMix {
		weights[i] = m.share
	}
	return rng.NewWeighted(weights)
}

// drawClass draws a device's class from classPick, splitting the m2m
// umbrella into its subclasses by m2mMix.
func drawClass(src *rng.Source, classPick *rng.Weighted) devices.Class {
	switch classPick.DrawFrom(src) {
	case 0:
		return devices.ClassSmartphone
	case 1:
		return devices.ClassFeaturePhone
	default:
		return m2mMix[m2mPick.DrawFrom(src)].class
	}
}

// roamerHome draws an inbound roamer's home operator from its class's
// home table.
func roamerHome(src *rng.Source, class devices.Class) mccmnc.PLMN {
	switch class {
	case devices.ClassSmartphone:
		return drawHome(src.Split("home"), smartHomes)
	case devices.ClassFeaturePhone:
		return drawHome(src.Split("home"), featHomes)
	default:
		return drawHome(src.Split("home"), m2mHomes[class])
	}
}

// deviceDraft is the outcome of a device's draft draws: everything
// needed to allocate its IMSI, plus its RNG substream positioned after
// the home-network draws, which the device's finishing draws split
// from.
type deviceDraft struct {
	class   devices.Class
	inbound bool
	home    mccmnc.PLMN
	mvno    bool
	base    uint64
	src     rng.Source
}

// draft replays device i's draft draws from the root stream: its
// class, roaming status, home network and IMSI block — the slice of
// device construction that precedes the order-dependent IMSI
// allocation. The registry's totals replay and the synthesis both go
// through this one method, which is what guarantees they see
// bit-identical draws (rng.Source.SplitN is O(1) and never advances
// the parent, so the replay is free and exact).
func (w *mnoWalk) draft(i int) deviceDraft {
	src := w.root.SplitN("device", uint64(i))
	class := drawClass(src, mnoClassPick)
	inboundShare := inboundM2M
	switch class {
	case devices.ClassSmartphone:
		inboundShare = inboundSmart
	case devices.ClassFeaturePhone:
		inboundShare = inboundFeat
	}
	inbound := src.Bool(inboundShare)
	national := !inbound && src.Bool(nationalShare/(1-inboundShare))

	// Home network.
	var home mccmnc.PLMN
	mvno := false
	switch {
	case inbound:
		home = roamerHome(src, class)
	case national:
		// Another operator of the host country.
		ops := w.hostOps
		home = ops[src.Intn(len(ops))].PLMN
		if home == w.cfg.Host {
			home = ops[(src.Intn(len(ops)-1)+1)%len(ops)].PLMN
		}
	default:
		if src.Bool(nativeMNOShare) {
			home = w.cfg.Host
		} else {
			mvno = true
			home = MVNO1
			if src.Bool(0.4) {
				home = MVNO2
			}
		}
	}

	// Identity: IMSI bases segregate populations. SMIP-native meters
	// get the host's dedicated range (§4.4); foreign M2M fleets sit
	// in their home operators' dedicated M2M blocks — the ranges an
	// IR.88 declaration would publish.
	base := uint64(1_000_000_000)
	switch {
	case class == devices.ClassSmartMeter && home == w.cfg.Host:
		base = SMIPNativeBase
	case class.IsM2M() && inbound:
		base = M2MBlockBase
	}
	return deviceDraft{class: class, inbound: inbound, home: home, mvno: mvno, base: base, src: *src}
}

// classProfile draws a device's activity profile and GSMA catalog
// identity for its class, consuming psrc exactly as a serial build
// would. host only matters for native smart meters (their profile is
// pinned to the host's SMIP deployment); home only for the platform
// verticals whose APN carries the home operator.
func classProfile(psrc *rng.Source, class devices.Class, days int, host, home mccmnc.PLMN, inbound bool, db *gsma.DB) (devices.Profile, gsma.DeviceInfo) {
	switch class {
	case devices.ClassSmartphone:
		return devices.SmartphoneProfile(psrc, days, inbound), db.Pick(psrc, gsma.ArchSmartphone)
	case devices.ClassFeaturePhone:
		return devices.FeaturePhoneProfile(psrc, days, inbound), db.Pick(psrc, gsma.ArchFeaturePhone)
	case devices.ClassSmartMeter:
		if inbound {
			return devices.SmartMeterRoamingProfile(psrc, days),
				db.PickFromVendors(psrc, gsma.ArchM2MModule, "Gemalto", "Telit")
		}
		return devices.SmartMeterNativeProfile(psrc, days, host), db.Pick(psrc, gsma.ArchM2MModule)
	case devices.ClassConnectedCar:
		return devices.ConnectedCarProfile(psrc, days), db.Pick(psrc, gsma.ArchVehicle)
	case devices.ClassWearable:
		return devices.WearableProfile(psrc, days, home), db.Pick(psrc, gsma.ArchWearable)
	case devices.ClassPOSTerminal:
		return devices.POSTerminalProfile(psrc, days, home), db.Pick(psrc, gsma.ArchM2MModule)
	default: // ClassAssetTracker
		return devices.AssetTrackerProfile(psrc, days, home), db.Pick(psrc, gsma.ArchM2MModule)
	}
}

// mobilitySlabs hands out a population draw's mobility models from
// chunked slabs (catalog.Slab), not one heap object per device. A
// chunk lives as long as any device moving by one of its models. The
// zero value is ready to use; not safe for concurrent use.
type mobilitySlabs struct {
	stationary catalog.Slab[mobility.Stationary]
	commuter   catalog.Slab[mobility.Commuter]
	vehicular  catalog.Slab[mobility.Vehicular]
	waypoint   catalog.Slab[mobility.Waypoint]
}

// classMobility draws the class's mobility model anchored at centre,
// consuming msrc exactly as a serial build would. The radii mirror
// the paper's observations: meters and POS terminals are stationary,
// cars and trackers vehicular, phones and wearables commute.
func (s *mobilitySlabs) classMobility(msrc *rng.Source, class devices.Class, centre geo.Point) mobility.Model {
	switch class {
	case devices.ClassSmartphone, devices.ClassWearable:
		return &s.commuter.One(mobility.NewCommuter(msrc, centre, 120))[0]
	case devices.ClassFeaturePhone:
		return &s.waypoint.One(mobility.NewWaypoint(msrc, centre, 15))[0]
	case devices.ClassSmartMeter, devices.ClassPOSTerminal:
		return s.stationaryAt(msrc, centre, 150)
	case devices.ClassConnectedCar:
		return &s.vehicular.One(mobility.NewVehicular(msrc, centre, 120))[0]
	default: // ClassAssetTracker
		return &s.vehicular.One(mobility.NewVehicular(msrc, centre, 150))[0]
	}
}

// stationaryAt draws a stationary model within spreadKm of centre.
func (s *mobilitySlabs) stationaryAt(src *rng.Source, centre geo.Point, spreadKm float64) *mobility.Stationary {
	return &s.stationary.One(mobility.NewStationary(src, centre, spreadKm))[0]
}

// SMIPNativeBase is the dedicated MSIN base of the host's smart-meter
// IMSI range.
const SMIPNativeBase = 9_000_000_000

// SMIPNativeRange returns the host's dedicated smart-meter IMSI range
// given how many meters were allocated.
func SMIPNativeRange(host mccmnc.PLMN, count uint64) identity.IMSIRange {
	return identity.IMSIRange{PLMN: host, Lo: SMIPNativeBase, Hi: SMIPNativeBase + count}
}

// dayScratch is an emission worker's scratch, reused across the
// devices of every shard it walks: emitDeviceDays' buffers and slabs.
// The zero value is ready to use.
type dayScratch struct {
	// visits is the per-day mobility sample's buffer, so the sampling
	// allocates nothing on the steady state.
	visits []geo.Visit
	// plmns and apns hand each record its one visited network and its
	// one APN: a record's lists come from a slab, not from a heap
	// object per record (catalog.Slab: capacity one, so a later append
	// copies out and no two records alias).
	plmns catalog.Slab[mccmnc.PLMN]
	apns  catalog.Slab[apn.APN]
}

// dayScratchPool lends each emission shard a dayScratch for the
// shard's run, so the 256-shard split costs one scratch per worker,
// not one per shard.
var dayScratchPool = sync.Pool{New: func() any { return new(dayScratch) }}

// emitCatalog fans the aggregate generators' one parallel step out
// over workers: device i's daily records, drawn from srcs[i], go to
// a dayRecords collector sized once to its exact bound (devices ×
// Days) and compacted in shard order, so the catalog is bit-identical
// at any worker count. The devices must be fully synthesized first.
func emitCatalog(host mccmnc.PLMN, start time.Time, days, workers int, devs []devices.Device, srcs []rng.Source) *catalog.Catalog {
	recs := newDayRecords(len(devs), days)
	pipeline.Run(len(devs), workers, func(sh pipeline.Shard) {
		scratch := dayScratchPool.Get().(*dayScratch)
		defer dayScratchPool.Put(scratch)
		emit := recs.region(sh).add
		for i := sh.Lo; i < sh.Hi; i++ {
			emitDeviceDays(&srcs[i], host, start, days, emit, &devs[i], scratch)
		}
	})
	return &catalog.Catalog{Host: host, Days: days, Records: recs.records()}
}

// dayRecords collects an aggregate generator's daily records into one
// buffer allocated once at its exact bound. emitDeviceDays emits at
// most one record per window day (a profile's PresenceStart is never
// negative), so n devices emit at most n × days records, and shard s
// appends into its own region [Lo·days, Hi·days) of the buffer: no
// shard ever regrows a slice, and no two shards share memory.
type dayRecords struct {
	buf     []catalog.DailyRecord
	days    int
	regions []dayRegion // per canonical shard
}

// dayRegion is one shard's region of a dayRecords buffer.
type dayRegion struct{ recs []catalog.DailyRecord }

// errDayBound is the panic value of a device that emits more daily
// records than the window has days.
const errDayBound = "dataset: daily records overflow their shard's Devices × Days bound (a device emitted more records than the window has days)"

func newDayRecords(n, days int) *dayRecords {
	return &dayRecords{
		buf:     make([]catalog.DailyRecord, n*days),
		days:    days,
		regions: make([]dayRegion, pipeline.ShardCount(n)),
	}
}

// region returns shard sh's region, empty and capped at the shard's
// bound. Its add is the shard's record sink.
func (c *dayRecords) region(sh pipeline.Shard) *dayRegion {
	r := &c.regions[sh.Index]
	r.recs = c.buf[sh.Lo*c.days : sh.Lo*c.days : sh.Hi*c.days]
	return r
}

// add appends rec to the region. A full region panics: it never
// reallocates.
func (r *dayRegion) add(rec catalog.DailyRecord) {
	if len(r.recs) == cap(r.recs) {
		panic(errDayBound)
	}
	r.recs = append(r.recs, rec)
}

// records compacts the regions in shard order, after the walk's
// fan-in, and returns them as one slice. A region never starts before
// the records already moved end, so each copy moves data down (or
// nowhere). The tail past the last record is cleared: it holds stale
// copies whose Visited and APNs would otherwise keep slab chunks
// reachable.
func (c *dayRecords) records() []catalog.DailyRecord {
	n := 0
	for i := range c.regions {
		n += copy(c.buf[n:], c.regions[i].recs)
	}
	clear(c.buf[n:])
	return c.buf[:n:n]
}

// emitDeviceDays samples the device's daily activity and hands each
// resulting catalog record to emit, in day order. scratch is the
// walking worker's, reused across its devices.
func emitDeviceDays(src *rng.Source, host mccmnc.PLMN, start time.Time, days int, emit func(catalog.DailyRecord), dev *devices.Device, scratch *dayScratch) {
	p := dev.Profile
	// Native smartphones occasionally travel abroad (H:A days,
	// captured via CDRs only — no radio events). The map is allocated
	// only for the travelling few; lookups on the nil map are fine.
	var outboundDays map[int]mccmnc.PLMN
	if dev.Class == devices.ClassSmartphone && dev.Home == host && src.Bool(outboundProb) {
		tripLen := 1 + src.Intn(3)
		tripStart := src.Intn(days)
		dest := drawHome(src.Split("trip"), smartHomes)
		outboundDays = make(map[int]mccmnc.PLMN, tripLen)
		for d := tripStart; d < tripStart+tripLen && d < days; d++ {
			outboundDays[d] = dest
		}
	}

	for day := p.PresenceStart; day < p.PresenceStart+p.PresenceDays && day < days; day++ {
		if !src.Bool(p.DailyActiveProb) {
			continue
		}
		rec := catalog.DailyRecord{
			Device: dev.ID,
			Day:    day,
			SIM:    dev.Home,
			TAC:    dev.IMEI.TAC,
		}
		abroad, isAbroad := outboundDays[day]
		if isAbroad {
			rec.Visited = scratch.plmns.One(abroad)
		} else {
			rec.Visited = scratch.plmns.One(host)
		}

		// Signaling events (radio logs exist only on the host
		// network: outbound days carry no radio activity, §4.1).
		if !isAbroad {
			events := int(src.LogNormal(p.SignalingMu, p.SignalingSigma))
			if events < 1 {
				events = 1
			}
			rec.Events = events
			if p.FailProb > 0 {
				rec.FailedEvents = src.Poisson(float64(events) * p.FailProb)
				if rec.FailedEvents > events {
					rec.FailedEvents = events
				}
			}
		}

		// Service usage.
		if p.UsesData {
			sessions := src.Poisson(p.DataSessionsPerDay)
			if sessions == 0 && src.Bool(0.5) {
				sessions = 1
			}
			var bytes uint64
			for s := 0; s < sessions; s++ {
				bytes += uint64(src.LogNormal(p.SessionBytesMu, p.SessionBytesSigma))
			}
			if sessions > 0 {
				rec.Bytes = bytes
				rec.DataRATs = rec.DataRATs.With(p.DataRAT)
				if p.DataRAT2 != 0 && src.Bool(0.5) {
					rec.DataRATs = rec.DataRATs.With(p.DataRAT2)
				}
				if !p.APN.IsZero() {
					rec.APNs = scratch.apns.One(p.APN)
				}
			}
		}
		if p.UsesVoice {
			calls := src.Poisson(p.CallsPerDay)
			if calls > 0 {
				rec.Calls = calls
				rec.CallSeconds = float64(calls) * src.Exp(p.CallDurMeanS)
				rec.VoiceRATs = rec.VoiceRATs.With(p.VoiceRAT)
			}
		}
		rec.RadioFlags = rec.DataRATs | rec.VoiceRATs
		if rec.RadioFlags.Empty() {
			// Signaling-only day: flags come from the profile's
			// primary technology.
			rec.RadioFlags = p.RATs()
		}

		// Mobility: sample the position over the day and compute the
		// daily metrics (outbound days have no host-side location).
		if !isAbroad {
			dayStart := start.Add(time.Duration(day) * 24 * time.Hour)
			vs := scratch.visits[:0]
			for h := 0; h < 24; h += 3 {
				vs = append(vs, geo.Visit{
					At:     dev.Mobility.Position(dayStart.Add(time.Duration(h) * time.Hour)),
					Weight: 3,
				})
			}
			scratch.visits = vs
			if c, ok := geo.Centroid(vs); ok {
				rec.Centroid = c
				rec.GyrationKm = geo.Gyration(vs)
				rec.HasLocation = true
			}
		}
		emit(rec)
	}
}
