package dataset

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"whereroam/internal/apn"
	"whereroam/internal/catalog"
	"whereroam/internal/identity"
	"whereroam/internal/mccmnc"
	"whereroam/internal/pipeline"
)

// A device that emits more records than the window has days overflows
// its shard's region: the collector panics with its named message
// instead of growing the region into the next shard's.
func TestDayRecordsOverflowPanics(t *testing.T) {
	const days = 3
	for _, workers := range []int{1, 4} {
		recs := newDayRecords(8, days)
		got := func() (p any) {
			defer func() { p = recover() }()
			pipeline.Run(8, workers, func(sh pipeline.Shard) {
				add := recs.region(sh).add
				for i := sh.Lo; i < sh.Hi; i++ {
					n := days
					if i == 5 {
						n = days + 1 // the fake walk's one overlong device
					}
					for d := 0; d < n; d++ {
						add(catalog.DailyRecord{Device: identity.DeviceID(i), Day: d})
					}
				}
			})
			return nil
		}()
		if got == nil || !strings.Contains(fmt.Sprint(got), errDayBound) {
			t.Fatalf("workers %d: panic %v, want one carrying %q", workers, got, errDayBound)
		}
	}
}

// The compacted records are every shard's records in shard order, and
// the buffer's tail past them holds nothing: no stale copy keeps a
// record's Visited or APNs reachable.
func TestDayRecordsCompactsAndClearsTail(t *testing.T) {
	const n, days = 6, 4
	perDevice := []int{2, 0, 4, 1, 3, 0}
	host := mccmnc.MustParse("23410")
	recs := newDayRecords(n, days)
	var want []catalog.DailyRecord
	for i, k := range perDevice {
		for d := 0; d < k; d++ {
			want = append(want, catalog.DailyRecord{
				Device:  identity.DeviceID(i),
				Day:     d,
				Visited: []mccmnc.PLMN{host},
				APNs:    []apn.APN{apn.MustParse("meter.example")},
			})
		}
	}
	pipeline.Run(n, 4, func(sh pipeline.Shard) {
		add := recs.region(sh).add
		for _, rec := range want {
			if int(rec.Device) >= sh.Lo && int(rec.Device) < sh.Hi {
				add(rec)
			}
		}
	})
	got := recs.records()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("compacted %d records, want %d in device order:\n%v", len(got), len(want), got)
	}
	if cap(got) != len(want) {
		t.Errorf("compacted records have capacity %d, want %d", cap(got), len(want))
	}
	for i, rec := range recs.buf[len(got):] {
		if !reflect.ValueOf(rec).IsZero() {
			t.Fatalf("buffer slot %d past the records is not cleared: %+v", len(got)+i, rec)
		}
	}
}

// Both aggregate generators are identical at one and four workers,
// field for field.
func TestAggregateGeneratorsWorkerInvariant(t *testing.T) {
	mcfg := smallMNO()
	mcfg.Devices = 700
	scfg := smallSMIP()
	scfg.NativeMeters, scfg.RoamingMeters, scfg.NBIoTMigration = 400, 300, 0.5
	mcfg.Workers, scfg.Workers = 1, 1
	mno, smip := GenerateMNO(mcfg), GenerateSMIP(scfg)
	if len(mno.Catalog.Records) == 0 || len(smip.Catalog.Records) == 0 || len(smip.NBIoT) == 0 {
		t.Fatal("small configs generated an empty plane")
	}
	mcfg.Workers, scfg.Workers = 4, 4
	if !reflect.DeepEqual(GenerateMNO(mcfg), mno) {
		t.Error("GenerateMNO differs between one and four workers")
	}
	if !reflect.DeepEqual(GenerateSMIP(scfg), smip) {
		t.Error("GenerateSMIP differs between one and four workers")
	}
}
