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
	// Workers bounds the per-event capture's worker pool
	// (GenerateSMIPStreaming); values below one mean one worker per
	// CPU. The built catalog, and each device's records in
	// ArchiveCDRs, are identical for every worker count.
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

// GenerateSMIP synthesizes the smart-meter dataset at the aggregate
// level (daily catalog records drawn directly, no per-event capture).
// Each cohort is its IMSI block's only allocator, so meter i's MSIN is
// base + i.
func GenerateSMIP(cfg SMIPConfig) *SMIPDataset {
	if cfg.NativeMeters < 0 || cfg.RoamingMeters < 0 || cfg.Days <= 0 {
		panic("dataset: SMIP config needs non-negative cohorts and positive Days")
	}
	db := gsma.Synthesize(cfg.GSMASeed)
	root := rng.New(cfg.Seed).Split("smip")
	hostCountry, _ := mccmnc.CountryByMCC(cfg.Host.MCC)
	centre := geo.Point{Lat: hostCountry.Lat, Lon: hostCountry.Lon}
	nlHome := mccmnc.MustParse("20404")

	ds := &SMIPDataset{
		Host:   cfg.Host,
		Start:  cfg.Start,
		Days:   cfg.Days,
		GSMA:   db,
		Native: make(map[identity.DeviceID]bool, cfg.NativeMeters+cfg.RoamingMeters),
		NBIoT:  map[identity.DeviceID]bool{},
	}
	cat := &catalog.Catalog{Host: cfg.Host, Days: cfg.Days}
	appendRec := func(rec catalog.DailyRecord) { cat.Records = append(cat.Records, rec) }
	var scratch dayScratch

	for i := 0; i < cfg.NativeMeters; i++ {
		src := root.SplitN("native", uint64(i))
		imsi := identity.IMSI{PLMN: cfg.Host, MSIN: SMIPNativeBase + uint64(i)}
		prof := devices.SmartMeterNativeProfile(src.Split("profile"), cfg.Days, cfg.Host)
		info := db.Pick(src.Split("tac"), gsma.ArchM2MModule)
		mob := mobility.NewStationary(src.Split("mob"), centre, 150)
		dev := devices.Assemble(devices.ClassSmartMeter, imsi, info, prof, mob, false)
		ds.Devices = append(ds.Devices, dev)
		ds.Native[dev.ID] = true
		emitDeviceDays(src.Split("days"), cfg.Host, cfg.Start, cfg.Days, appendRec, &dev, &scratch)
	}
	for i := 0; i < cfg.RoamingMeters; i++ {
		src := root.SplitN("roaming", uint64(i))
		imsi := identity.IMSI{PLMN: nlHome, MSIN: smipRoamingBase + uint64(i)}
		migrated := cfg.NBIoTMigration > 0 && src.Bool(cfg.NBIoTMigration)
		var prof devices.Profile
		if migrated {
			prof = devices.NBIoTMeterProfile(src.Split("profile"), cfg.Days)
		} else {
			prof = devices.SmartMeterRoamingProfile(src.Split("profile"), cfg.Days)
		}
		// §4.4: every roaming meter maps to a Gemalto or Telit module.
		info := db.PickFromVendors(src.Split("tac"), gsma.ArchM2MModule, "Gemalto", "Telit")
		mob := mobility.NewStationary(src.Split("mob"), centre, 150)
		dev := devices.Assemble(devices.ClassSmartMeter, imsi, info, prof, mob, false)
		ds.Devices = append(ds.Devices, dev)
		ds.Native[dev.ID] = false
		if migrated {
			ds.NBIoT[dev.ID] = true
		}
		emitDeviceDays(src.Split("days"), cfg.Host, cfg.Start, cfg.Days, appendRec, &dev, &scratch)
	}
	ds.Catalog = cat
	ds.NativeRange = SMIPNativeRange(cfg.Host, uint64(cfg.NativeMeters))
	return ds
}
