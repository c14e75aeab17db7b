package dataset

import (
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"whereroam/internal/catalog"
	"whereroam/internal/cdrs"
	"whereroam/internal/identity"
	"whereroam/internal/radio"
)

func rawSMIP() SMIPConfig {
	cfg := DefaultSMIPConfig()
	cfg.NativeMeters = 400
	cfg.RoamingMeters = 300
	return cfg
}

// smipFeed runs the per-event capture with an ArchiveCDRs collector and
// returns the dataset and every CDR/xDR the sink saw, devices in
// population order and each device's records in arrival order.
func smipFeed(cfg SMIPConfig) (*SMIPDataset, []cdrs.Record) {
	var mu sync.Mutex
	perDev := map[identity.DeviceID][]cdrs.Record{}
	cfg.ArchiveCDRs = func(r cdrs.Record) {
		mu.Lock()
		perDev[r.Device] = append(perDev[r.Device], r)
		mu.Unlock()
	}
	ds := GenerateSMIPStreaming(cfg)
	var feed []cdrs.Record
	for _, d := range ds.Devices {
		feed = append(feed, perDev[d.ID]...)
	}
	return ds, feed
}

func TestGenerateSMIPRawPipeline(t *testing.T) {
	ds, feed := smipFeed(rawSMIP())
	if len(feed) == 0 {
		t.Fatal("archived feed empty")
	}
	// Each device's records reach the sink in time order.
	for i := 1; i < len(feed); i++ {
		if feed[i].Device == feed[i-1].Device && feed[i].Time.Before(feed[i-1].Time) {
			t.Fatalf("device %v's records not time-ordered", feed[i].Device)
		}
	}
	// The builder's catalog covers the devices that were active.
	if len(ds.Catalog.Records) == 0 {
		t.Fatal("builder produced no catalog records")
	}
	seen := map[uint64]bool{}
	events := 0
	for i := range ds.Catalog.Records {
		r := &ds.Catalog.Records[i]
		seen[uint64(r.Device)] = true
		events += r.Events
		if r.FailedEvents > r.Events {
			t.Fatal("failed > events")
		}
	}
	if events == 0 {
		t.Fatal("catalog counts no radio events")
	}
	if len(seen) < 650 {
		t.Errorf("catalog covers %d devices of 700", len(seen))
	}
}

func TestRawMatchesDirectGeneratorShape(t *testing.T) {
	// The per-event path and the direct aggregate path must agree on
	// the §7.1 shape criteria: native persistence, roaming
	// intermittence, the ~10x signaling ratio, and RAT usage.
	cfg := rawSMIP()
	direct := GenerateSMIP(cfg)
	rawDS := GenerateSMIPStreaming(cfg)

	summarize := func(ds *SMIPDataset) (natMed, roamMed, ratio float64) {
		activeDays := map[uint64]int{}
		events := map[uint64]int{}
		for i := range ds.Catalog.Records {
			r := &ds.Catalog.Records[i]
			activeDays[uint64(r.Device)]++
			events[uint64(r.Device)] += r.Events
		}
		var nat, roam []float64
		var natEv, natDays, roamEv, roamDays float64
		for _, d := range ds.Devices {
			id := uint64(d.ID)
			if ds.Native[d.ID] {
				nat = append(nat, float64(activeDays[id]))
				natEv += float64(events[id])
				natDays += float64(activeDays[id])
			} else {
				roam = append(roam, float64(activeDays[id]))
				roamEv += float64(events[id])
				roamDays += float64(activeDays[id])
			}
		}
		sort.Float64s(nat)
		sort.Float64s(roam)
		return nat[len(nat)/2], roam[len(roam)/2], (roamEv / roamDays) / (natEv / natDays)
	}
	dn, dr, dratio := summarize(direct)
	rn, rr, rratio := summarize(rawDS)
	if dn < 22 || rn < 22 {
		t.Errorf("native medians: direct %.0f raw %.0f, want ~26", dn, rn)
	}
	if dr > 8 || rr > 8 {
		t.Errorf("roaming medians: direct %.0f raw %.0f, want ~5", dr, rr)
	}
	if rratio < dratio/2 || rratio > dratio*2 {
		t.Errorf("signaling ratios diverge: direct %.1f raw %.1f", dratio, rratio)
	}
}

func TestRawMobilityIsStationary(t *testing.T) {
	ds := GenerateSMIPStreaming(rawSMIP())
	// Meters are stationary; the dwell-weighted gyration computed by
	// the builder from raw sector visits must say so.
	located, under1km := 0, 0
	for i := range ds.Catalog.Records {
		r := &ds.Catalog.Records[i]
		if !r.HasLocation {
			continue
		}
		located++
		if r.GyrationKm <= 1 {
			under1km++
		}
	}
	if located == 0 {
		t.Fatal("no located records")
	}
	if frac := float64(under1km) / float64(located); frac < 0.9 {
		t.Errorf("stationary share via raw pipeline = %.3f, want >= 0.9", frac)
	}
}

func TestRawRATConsistency(t *testing.T) {
	ds := GenerateSMIPStreaming(rawSMIP())
	// Roaming meters are 2G-only: every RAT a roaming device's radio
	// events and records flag in the catalog must be 2G.
	roaming := 0
	for i := range ds.Catalog.Records {
		r := &ds.Catalog.Records[i]
		if ds.Native[r.Device] {
			continue
		}
		roaming++
		if r.RadioFlags&^radio.Has2G != 0 {
			t.Fatalf("roaming meter %v flags RATs %v on day %d", r.Device, r.RadioFlags, r.Day)
		}
	}
	if roaming == 0 {
		t.Fatal("no roaming meter in the catalog")
	}
}

func BenchmarkGenerateSMIPStreaming(b *testing.B) {
	cfg := rawSMIP()
	cfg.NativeMeters, cfg.RoamingMeters = 150, 100
	for i := 0; i < b.N; i++ {
		_ = GenerateSMIPStreaming(cfg)
	}
}

// The per-event capture honours NBIoTMigration (about half the roaming
// meters migrate and every one of their records and radio events rides
// NB-IoT) and ArchiveCDRs (the sink sees every CDR/xDR the catalog was
// built from: a catalog built from the archived feed alone carries the
// live catalog's CDR-plane fields, device-day by device-day).
func TestRawHonoursNBIoTMigrationAndArchive(t *testing.T) {
	cfg := rawSMIP()
	cfg.NBIoTMigration = 0.5
	ds, feed := smipFeed(cfg)

	onNB := 0
	for i := range feed {
		r := &feed[i]
		if ds.NBIoT[r.Device] != (r.RAT == radio.RATNB) {
			t.Fatalf("record of device %v on %v, migrated=%v", r.Device, r.RAT, ds.NBIoT[r.Device])
		}
		if r.RAT == radio.RATNB {
			onNB++
		}
	}
	if onNB == 0 {
		t.Error("no CDR/xDR on NB-IoT")
	}
	for i := range ds.Catalog.Records {
		r := &ds.Catalog.Records[i]
		migrated := ds.NBIoT[r.Device]
		if migrated && r.RadioFlags&^radio.HasNB != 0 || !migrated && r.RadioFlags.Has(radio.RATNB) {
			t.Fatalf("device %v flags RATs %v on day %d, migrated=%v", r.Device, r.RadioFlags, r.Day, migrated)
		}
	}
	if n := len(ds.NBIoT); n < cfg.RoamingMeters*4/10 || n > cfg.RoamingMeters*6/10 {
		t.Errorf("%d of %d roaming meters on NB-IoT, want about half", n, cfg.RoamingMeters)
	}
	for id := range ds.NBIoT {
		if native, ok := ds.Native[id]; !ok || native {
			t.Fatalf("NB-IoT device %v is not a roaming meter", id)
		}
	}

	b := catalog.NewBuilder(cfg.Host, cfg.Start, cfg.Days, nil)
	for i := range feed {
		b.AddRecord(feed[i])
	}
	type deviceDay struct {
		dev identity.DeviceID
		day int
	}
	archived := map[deviceDay]*catalog.DailyRecord{}
	fromFeed := b.Build()
	for i := range fromFeed.Records {
		r := &fromFeed.Records[i]
		archived[deviceDay{r.Device, r.Day}] = r
	}
	for i := range ds.Catalog.Records {
		r := &ds.Catalog.Records[i]
		k := deviceDay{r.Device, r.Day}
		a, ok := archived[k]
		if !ok {
			a = &catalog.DailyRecord{}
		}
		if a.Calls != r.Calls || a.CallSeconds != r.CallSeconds || a.Bytes != r.Bytes ||
			a.DataRATs != r.DataRATs || a.VoiceRATs != r.VoiceRATs {
			t.Fatalf("device %v day %d: the archived feed's CDR-plane fields differ from the live catalog's", r.Device, r.Day)
		}
		delete(archived, k)
	}
	if len(archived) != 0 {
		t.Errorf("the archived feed holds %d device-days the live catalog lacks", len(archived))
	}
}

// TestCaptureSchedulingInvariance builds one per-event capture at
// several worker counts, and five times at eight workers, and requires
// the catalogs to agree record for record. The emission shards borrow
// per-worker builders in whatever order the pool drains them, so this
// is where a borrowing race or a grouping-dependent merge shows; CI
// runs it under -race with -count=5.
func TestCaptureSchedulingInvariance(t *testing.T) {
	cfg := DefaultSMIPConfig()
	cfg.NativeMeters, cfg.RoamingMeters, cfg.Days = 220, 160, 5
	var tee atomic.Int64
	cfg.ArchiveCDRs = func(cdrs.Record) { tee.Add(1) }
	build := func(workers int) (*catalog.Catalog, int64) {
		tee.Store(0)
		c := cfg
		c.Workers = workers
		return GenerateSMIPStreaming(c).Catalog, tee.Load()
	}
	want, wantTee := build(1)
	if len(want.Records) == 0 || wantTee == 0 {
		t.Fatal("the capture emitted nothing")
	}
	for _, workers := range []int{2, 3, 8, 8, 8, 8, 8} {
		got, gotTee := build(workers)
		if gotTee != wantTee {
			t.Errorf("workers=%d: the tee saw %d records, %d at one worker", workers, gotTee, wantTee)
		}
		if len(got.Records) != len(want.Records) {
			t.Fatalf("workers=%d: %d records, %d at one worker", workers, len(got.Records), len(want.Records))
		}
		for i := range want.Records {
			if !reflect.DeepEqual(got.Records[i], want.Records[i]) {
				t.Fatalf("workers=%d: record %d is %+v, at one worker %+v", workers, i, got.Records[i], want.Records[i])
			}
		}
	}
}
