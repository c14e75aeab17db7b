package dataset

import (
	"time"

	"whereroam/internal/catalog"
	"whereroam/internal/cdrs"
	"whereroam/internal/devices"
	"whereroam/internal/geo"
	"whereroam/internal/gsma"
	"whereroam/internal/identity"
	"whereroam/internal/mccmnc"
	"whereroam/internal/mobility"
	"whereroam/internal/rng"
)

// SMIPConfig parameterizes the smart-meter dataset generator (§7,
// Fig 11: 1–26 October 2019).
type SMIPConfig struct {
	Seed          uint64
	NativeMeters  int // host-MNO SIMs in the dedicated IMSI range
	RoamingMeters int // global IoT SIMs homed at the NL operator
	Days          int
	Start         time.Time
	Host          mccmnc.PLMN
	GSMASeed      uint64
	// NBIoTMigration is the fraction of roaming meters migrated to
	// NB-IoT (the §8 scenario). Zero reproduces the paper's 2G fleet.
	NBIoTMigration float64
	// Workers bounds the worker pool of both generators: the aggregate
	// GenerateSMIP and the per-event capture (GenerateSMIPStreaming);
	// values below one mean one worker per CPU. The dataset, and each
	// device's records in ArchiveCDRs, are identical for every worker
	// count.
	Workers int
	// ArchiveCDRs, when non-nil, additionally receives every CDR/xDR
	// the per-event measurement path (GenerateSMIPStreaming) offers
	// its catalog builders — the probe.Fanout persist-and-ingest hook.
	// Point it at a store.Writer.Sink to archive the live feed while
	// the catalog builds in the same pass. It is called concurrently from the
	// emission shards; each device's records arrive in per-device time
	// order, the order contract an archived feed's replay rests on (see
	// internal/store).
	ArchiveCDRs func(cdrs.Record)
}

// DefaultSMIPConfig returns the standard scaled-down configuration
// (the paper studies 3.2M meters; 1/100 scale keeps runs instant).
func DefaultSMIPConfig() SMIPConfig {
	return SMIPConfig{
		Seed:          1,
		NativeMeters:  20000,
		RoamingMeters: 12000,
		Days:          26,
		Start:         time.Date(2019, 10, 1, 0, 0, 0, 0, time.UTC),
		Host:          mccmnc.MustParse("23410"),
		GSMASeed:      1,
	}
}

// SMIPDataset is the §7 dataset.
type SMIPDataset struct {
	Host    mccmnc.PLMN
	Start   time.Time
	Days    int
	GSMA    *gsma.DB
	Devices []devices.Device
	Catalog *catalog.Catalog
	// Native marks the SMIP-native cohort (false = roaming meter).
	Native map[identity.DeviceID]bool
	// NBIoT marks the roaming meters migrated to NB-IoT (empty when
	// NBIoTMigration is zero).
	NBIoT map[identity.DeviceID]bool
	// NativeRange is the dedicated IMSI block of the native cohort.
	NativeRange identity.IMSIRange
}

// smipRoamingBase is the MSIN base of the roaming meters' block at the
// NL operator.
const smipRoamingBase = 4_000_000_000

// smipRoamingHome is the NL operator the roaming meters' global IoT
// SIMs are homed at.
var smipRoamingHome = mccmnc.MustParse("20404")

// GenerateSMIP synthesizes the smart-meter dataset at the aggregate
// level (daily catalog records drawn directly, no per-event capture):
// one serial pass drafts the meters, each from its own substream, and
// their daily records fan out over cfg.Workers goroutines
// (emitCatalog), so the dataset is bit-identical for any worker count.
func GenerateSMIP(cfg SMIPConfig) *SMIPDataset {
	m := newSMIPMeters(cfg, "smip", 150)
	n := cfg.NativeMeters + cfg.RoamingMeters
	devs := make([]devices.Device, n)
	days := make([]rng.Source, n)
	migrated := make([]bool, n)
	for i := range devs {
		devs[i], days[i], migrated[i] = m.draw(i)
	}
	ds := m.newDataset(devs, migrated)
	ds.Catalog = emitCatalog(cfg.Host, cfg.Start, cfg.Days, cfg.Workers, devs, days)
	return ds
}

// smipMeters drafts the two meter cohorts both SMIP generators share —
// natives in the host's dedicated IMSI block, then the roaming meters
// on the NL operator's global IoT SIMs — each meter from its own
// substream of root. Each cohort is its block's only allocator, so
// meter i's MSIN is base + i with no allocation pass. The generators
// differ only in the root stream's label and the meters' mobility
// radius.
type smipMeters struct {
	cfg    SMIPConfig
	db     *gsma.DB
	root   *rng.Source
	centre geo.Point
	radius float64
	// mobs holds meter i's mobility model at index i: one slab for the
	// cohorts, not one heap object per meter.
	mobs []mobility.Stationary
}

func newSMIPMeters(cfg SMIPConfig, label string, radius float64) *smipMeters {
	if cfg.NativeMeters < 0 || cfg.RoamingMeters < 0 || cfg.Days <= 0 {
		panic("dataset: SMIP config needs non-negative cohorts and positive Days")
	}
	hostCountry, _ := mccmnc.CountryByMCC(cfg.Host.MCC)
	return &smipMeters{
		cfg:    cfg,
		db:     gsma.Synthesize(cfg.GSMASeed),
		root:   rng.New(cfg.Seed).Split(label),
		centre: geo.Point{Lat: hostCountry.Lat, Lon: hostCountry.Lon},
		radius: radius,
		mobs:   make([]mobility.Stationary, cfg.NativeMeters+cfg.RoamingMeters),
	}
}

// draw drafts meter i and returns it with the substream its daily
// activity draws from and whether it was migrated to NB-IoT.
func (m *smipMeters) draw(i int) (dev devices.Device, days rng.Source, migrated bool) {
	cfg := &m.cfg
	var src *rng.Source
	var imsi identity.IMSI
	var prof devices.Profile
	var info gsma.DeviceInfo
	if i < cfg.NativeMeters {
		src = m.root.SplitN("native", uint64(i))
		imsi = identity.IMSI{PLMN: cfg.Host, MSIN: SMIPNativeBase + uint64(i)}
		prof = devices.SmartMeterNativeProfile(src.Split("profile"), cfg.Days, cfg.Host)
		info = m.db.Pick(src.Split("tac"), gsma.ArchM2MModule)
	} else {
		r := uint64(i - cfg.NativeMeters)
		src = m.root.SplitN("roaming", r)
		imsi = identity.IMSI{PLMN: smipRoamingHome, MSIN: smipRoamingBase + r}
		// A zero-migration fleet draws nothing here.
		migrated = cfg.NBIoTMigration > 0 && src.Bool(cfg.NBIoTMigration)
		if migrated {
			prof = devices.NBIoTMeterProfile(src.Split("profile"), cfg.Days)
		} else {
			prof = devices.SmartMeterRoamingProfile(src.Split("profile"), cfg.Days)
		}
		// §4.4: every roaming meter maps to a Gemalto or Telit module.
		info = m.db.PickFromVendors(src.Split("tac"), gsma.ArchM2MModule, "Gemalto", "Telit")
	}
	m.mobs[i] = mobility.NewStationary(src.Split("mob"), m.centre, m.radius)
	return devices.Assemble(devices.ClassSmartMeter, imsi, info, prof, &m.mobs[i], false), *src.Split("days"), migrated
}

// newDataset wraps the drafted meters, in index order, in their dataset:
// everything but the catalog.
func (m *smipMeters) newDataset(devs []devices.Device, migrated []bool) *SMIPDataset {
	cfg := &m.cfg
	ds := &SMIPDataset{
		Host:        cfg.Host,
		Start:       cfg.Start,
		Days:        cfg.Days,
		GSMA:        m.db,
		Devices:     devs,
		Native:      make(map[identity.DeviceID]bool, len(devs)),
		NBIoT:       map[identity.DeviceID]bool{},
		NativeRange: SMIPNativeRange(cfg.Host, uint64(cfg.NativeMeters)),
	}
	for i := range devs {
		id := devs[i].ID
		ds.Native[id] = i < cfg.NativeMeters
		if migrated[i] {
			ds.NBIoT[id] = true
		}
	}
	return ds
}
