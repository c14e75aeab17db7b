package dataset

import (
	"reflect"
	"sort"
	"sync"
	"testing"

	"whereroam/internal/cdrs"
	"whereroam/internal/radio"
)

func rawSMIP() SMIPConfig {
	cfg := DefaultSMIPConfig()
	cfg.NativeMeters = 400
	cfg.RoamingMeters = 300
	return cfg
}

func TestGenerateSMIPRawPipeline(t *testing.T) {
	ds, raw := GenerateSMIPRaw(rawSMIP())
	if len(raw.Radio) == 0 || len(raw.Records) == 0 {
		t.Fatal("raw streams empty")
	}
	// Streams are time-ordered after capture.
	for i := 1; i < len(raw.Radio); i++ {
		if raw.Radio[i].Time.Before(raw.Radio[i-1].Time) {
			t.Fatal("radio stream not time-ordered")
		}
	}
	// The builder's catalog covers the devices that were active.
	if len(ds.Catalog.Records) == 0 {
		t.Fatal("builder produced no catalog records")
	}
	seen := map[uint64]bool{}
	for i := range ds.Catalog.Records {
		r := &ds.Catalog.Records[i]
		seen[uint64(r.Device)] = true
		if r.FailedEvents > r.Events {
			t.Fatal("failed > events")
		}
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
	rawDS, _ := GenerateSMIPRaw(cfg)

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
	ds, _ := GenerateSMIPRaw(rawSMIP())
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
	ds, raw := GenerateSMIPRaw(rawSMIP())
	// Roaming meters are 2G-only: every radio event from a roaming
	// device must ride a 2G interface.
	for i := range raw.Radio {
		ev := &raw.Radio[i]
		native := ds.Native[ev.Device]
		if !native && ev.RAT() != radio.RAT2G {
			t.Fatalf("roaming meter event on %v", ev.RAT())
		}
	}
}

func BenchmarkGenerateSMIPRaw(b *testing.B) {
	cfg := rawSMIP()
	cfg.NativeMeters, cfg.RoamingMeters = 150, 100
	for i := 0; i < b.N; i++ {
		_, _ = GenerateSMIPRaw(cfg)
	}
}

// Both per-event entry points share one population and one capture, so
// both honour NBIoTMigration (about half the roaming meters migrate and
// every one of their records rides NB-IoT) and ArchiveCDRs (the sink
// sees every CDR/xDR the capture emitted).
func TestRawHonoursNBIoTMigrationAndArchive(t *testing.T) {
	cfg := rawSMIP()
	cfg.NBIoTMigration = 0.5

	var mu sync.Mutex
	archived := 0
	cfg.ArchiveCDRs = func(cdrs.Record) { mu.Lock(); archived++; mu.Unlock() }
	rawDS, raw := GenerateSMIPRaw(cfg)
	if archived != len(raw.Records) {
		t.Errorf("GenerateSMIPRaw archived %d records, capture holds %d", archived, len(raw.Records))
	}
	onNB := 0
	for i := range raw.Records {
		r := &raw.Records[i]
		if rawDS.NBIoT[r.Device] != (r.RAT == radio.RATNB) {
			t.Fatalf("record of device %v on %v, migrated=%v", r.Device, r.RAT, rawDS.NBIoT[r.Device])
		}
		if r.RAT == radio.RATNB {
			onNB++
		}
	}
	if onNB == 0 {
		t.Error("no CDR/xDR on NB-IoT")
	}
	for i := range raw.Radio {
		if ev := &raw.Radio[i]; rawDS.NBIoT[ev.Device] != (ev.RAT() == radio.RATNB) {
			t.Fatalf("radio event of device %v on %v, migrated=%v", ev.Device, ev.RAT(), rawDS.NBIoT[ev.Device])
		}
	}

	cfg.ArchiveCDRs = nil
	streamDS := GenerateSMIPStreaming(cfg)
	for name, ds := range map[string]*SMIPDataset{"raw": rawDS, "streaming": streamDS} {
		if n := len(ds.NBIoT); n < cfg.RoamingMeters*4/10 || n > cfg.RoamingMeters*6/10 {
			t.Errorf("%s: %d of %d roaming meters on NB-IoT, want about half", name, n, cfg.RoamingMeters)
		}
		for id := range ds.NBIoT {
			if native, ok := ds.Native[id]; !ok || native {
				t.Fatalf("%s: NB-IoT device %v is not a roaming meter", name, id)
			}
		}
	}
	if !reflect.DeepEqual(rawDS.NBIoT, streamDS.NBIoT) || !reflect.DeepEqual(rawDS.Catalog.Records, streamDS.Catalog.Records) {
		t.Error("raw and streaming disagree on the migrated fleet")
	}
}
