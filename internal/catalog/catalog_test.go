package catalog

import (
	"reflect"
	"testing"
	"time"

	"whereroam/internal/apn"
	"whereroam/internal/cdrs"
	"whereroam/internal/geo"
	"whereroam/internal/gsma"
	"whereroam/internal/identity"
	"whereroam/internal/mccmnc"
	"whereroam/internal/radio"
	"whereroam/internal/rng"
)

var (
	host  = mccmnc.MustParse("23410")
	nlSIM = mccmnc.MustParse("20404")
	start = time.Date(2019, 4, 5, 0, 0, 0, 0, time.UTC)
)

func ukGrid(t testing.TB) *radio.Grid {
	t.Helper()
	c, _ := mccmnc.CountryByISO("GB")
	return radio.NewGrid(c, 30, 30, radio.DefaultSpacingDeg)
}

func TestBuilderRadioAggregation(t *testing.T) {
	b := NewBuilder(host, start, 22, ukGrid(t))
	dev := identity.DeviceID(0xaa)
	for h := 0; h < 10; h++ {
		b.AddRadioEvent(radio.Event{
			Device: dev, Time: start.Add(time.Duration(h) * time.Hour),
			SIM: nlSIM, TAC: 35600000, Sector: 5, Interface: radio.IfGb,
			Result: radio.ResultOK,
		})
	}
	b.AddRadioEvent(radio.Event{
		Device: dev, Time: start.Add(11 * time.Hour),
		SIM: nlSIM, TAC: 35600000, Sector: 5, Interface: radio.IfGb,
		Result: radio.ResultFail,
	})
	cat := b.Build()
	if len(cat.Records) != 1 {
		t.Fatalf("records = %d, want 1 (single device-day)", len(cat.Records))
	}
	r := cat.Records[0]
	if r.Events != 11 || r.FailedEvents != 1 {
		t.Errorf("events = %d/%d, want 11/1", r.Events, r.FailedEvents)
	}
	if !r.RadioFlags.Only(radio.RAT2G) {
		t.Errorf("radio flags = %v, want 2G only", r.RadioFlags)
	}
	if !r.HasLocation {
		t.Fatal("stationary device should have a location")
	}
	if r.GyrationKm > 0.001 {
		t.Errorf("single-sector gyration = %f, want ~0", r.GyrationKm)
	}
	if len(r.Visited) != 1 || r.Visited[0] != host {
		t.Errorf("visited = %v", r.Visited)
	}
}

func TestBuilderFailedEventsDontSetFlags(t *testing.T) {
	b := NewBuilder(host, start, 22, nil)
	dev := identity.DeviceID(0xbb)
	b.AddRadioEvent(radio.Event{
		Device: dev, Time: start, SIM: nlSIM, Interface: radio.IfS1,
		Result: radio.ResultFail,
	})
	cat := b.Build()
	if got := cat.Records[0].RadioFlags; !got.Empty() {
		t.Errorf("failed-only device has radio flags %v", got)
	}
}

func TestBuilderCDRAggregation(t *testing.T) {
	b := NewBuilder(host, start, 22, nil)
	dev := identity.DeviceID(0xcc)
	a := apn.MustParse("smhp.centricaplc.com.mnc004.mcc204.gprs")
	for i := 0; i < 3; i++ {
		b.AddRecord(cdrs.Record{
			Device: dev, Time: start.Add(time.Duration(i) * time.Hour),
			SIM: nlSIM, Visited: host, Kind: cdrs.KindData,
			RAT: radio.RAT2G, Bytes: 1000, APN: a,
		})
	}
	b.AddRecord(cdrs.Record{
		Device: dev, Time: start.Add(4 * time.Hour),
		SIM: nlSIM, Visited: host, Kind: cdrs.KindVoice,
		RAT: radio.RAT2G, Duration: 30 * time.Second,
	})
	cat := b.Build()
	r := cat.Records[0]
	if r.Bytes != 3000 {
		t.Errorf("bytes = %d", r.Bytes)
	}
	if r.Calls != 1 || r.CallSeconds != 30 {
		t.Errorf("calls = %d/%.0fs", r.Calls, r.CallSeconds)
	}
	if len(r.APNs) != 1 {
		t.Errorf("APNs = %v (should dedup)", r.APNs)
	}
	if !r.DataRATs.Only(radio.RAT2G) || !r.VoiceRATs.Only(radio.RAT2G) {
		t.Errorf("service RATs = %v/%v", r.DataRATs, r.VoiceRATs)
	}
}

func TestBuilderDayBoundaries(t *testing.T) {
	b := NewBuilder(host, start, 2, nil)
	dev := identity.DeviceID(0xdd)
	times := []time.Time{
		start.Add(-time.Hour),     // before window: dropped
		start,                     // day 0
		start.Add(25 * time.Hour), // day 1
		start.Add(49 * time.Hour), // past window: dropped
	}
	for _, ts := range times {
		b.AddRadioEvent(radio.Event{Device: dev, Time: ts, SIM: nlSIM, Interface: radio.IfGb, Result: radio.ResultOK})
	}
	cat := b.Build()
	if len(cat.Records) != 2 {
		t.Fatalf("records = %d, want 2", len(cat.Records))
	}
	if cat.Records[0].Day != 0 || cat.Records[1].Day != 1 {
		t.Errorf("days = %d,%d", cat.Records[0].Day, cat.Records[1].Day)
	}
}

func TestBuilderMobilityFromDwell(t *testing.T) {
	grid := ukGrid(t)
	b := NewBuilder(host, start, 22, grid)
	dev := identity.DeviceID(0xee)
	// A device alternating between two far-apart sectors with equal
	// dwell should show gyration about half the sector distance.
	s1, _ := grid.Sector(0)
	s2, _ := grid.Sector(30*30 - 1) // the far corner of ukGrid
	for h := 0; h < 12; h++ {
		sec := s1.ID
		if h%2 == 1 {
			sec = s2.ID
		}
		b.AddRadioEvent(radio.Event{
			Device: dev, Time: start.Add(time.Duration(h) * time.Hour),
			SIM: nlSIM, Sector: sec, Interface: radio.IfGb, Result: radio.ResultOK,
		})
	}
	cat := b.Build()
	r := cat.Records[0]
	want := geo.DistanceKm(s1.At, s2.At) / 2
	if !r.HasLocation || r.GyrationKm < want*0.7 || r.GyrationKm > want*1.3 {
		t.Errorf("gyration = %.1f km, want ~%.1f", r.GyrationKm, want)
	}
}

func TestSummaries(t *testing.T) {
	db := gsma.Synthesize(1)
	b := NewBuilder(host, start, 22, nil)
	dev := identity.DeviceID(0xff)
	tac := identity.TAC(35600000) // in the M2M block of the synthetic catalog
	for d := 0; d < 5; d++ {
		b.AddRadioEvent(radio.Event{
			Device: dev, Time: start.Add(time.Duration(d) * 24 * time.Hour),
			SIM: nlSIM, TAC: tac, Interface: radio.IfGb, Result: radio.ResultOK,
		})
		b.AddRecord(cdrs.Record{
			Device: dev, Time: start.Add(time.Duration(d)*24*time.Hour + time.Hour),
			SIM: nlSIM, Visited: host, Kind: cdrs.KindData, RAT: radio.RAT2G,
			Bytes: 500, APN: apn.MustParse("meter.rwe-npower.co.uk"),
		})
	}
	cat := b.Build()
	sums := cat.SummariesWorkers(db, 0)
	if len(sums) != 1 {
		t.Fatalf("summaries = %d", len(sums))
	}
	s := sums[0]
	if s.ActiveDays != 5 || s.FirstDay != 0 || s.LastDay != 4 {
		t.Errorf("activity = %d days [%d,%d]", s.ActiveDays, s.FirstDay, s.LastDay)
	}
	if s.Bytes != 2500 || s.Events != 5 {
		t.Errorf("bytes=%d events=%d", s.Bytes, s.Events)
	}
	if !s.InfoOK {
		t.Fatal("TAC should resolve against the synthetic GSMA catalog")
	}
	if s.DataRATs.Empty() || !s.VoiceRATs.Empty() {
		t.Error("service flags wrong")
	}
	if len(s.APNs) != 1 {
		t.Errorf("APNs = %v", s.APNs)
	}
}

func TestSummariesUnknownTAC(t *testing.T) {
	db := gsma.Synthesize(1)
	b := NewBuilder(host, start, 22, nil)
	b.AddRadioEvent(radio.Event{
		Device: identity.DeviceID(1), Time: start, SIM: nlSIM,
		TAC: 99999999, Interface: radio.IfGb, Result: radio.ResultOK,
	})
	sums := b.Build().SummariesWorkers(db, 0)
	if sums[0].InfoOK {
		t.Error("unknown TAC should not resolve")
	}
}

func TestSummariesSortedAndMultiDevice(t *testing.T) {
	b := NewBuilder(host, start, 22, nil)
	for i := 10; i > 0; i-- {
		b.AddRadioEvent(radio.Event{
			Device: identity.DeviceID(i), Time: start.Add(time.Hour),
			SIM: nlSIM, Interface: radio.IfGb, Result: radio.ResultOK,
		})
	}
	sums := b.Build().SummariesWorkers(nil, 0)
	if len(sums) != 10 {
		t.Fatalf("summaries = %d", len(sums))
	}
	for i := 1; i < len(sums); i++ {
		if sums[i-1].Device >= sums[i].Device {
			t.Fatal("summaries must be sorted by device ID")
		}
	}
}

// Each device's summary must equal the summary of a catalog holding
// that device's records alone, at every worker count. The catalog has
// ≈ 4 700 records, so the 256 canonical shard edges fall inside device
// runs; a device summed in two pieces has its CallSeconds and gyration
// additions regrouped and differs in the last bits. Devices are not in
// ID order, as in a generator's catalog.
func TestSummariesMatchPerDeviceReference(t *testing.T) {
	db := gsma.Synthesize(1)
	src := rng.New(7)
	apns := []apn.APN{
		apn.MustParse("internet"),
		apn.MustParse("meter.rwe-npower.co.uk"),
		apn.MustParse("smhp.centricaplc.com.mnc004.mcc204.gprs"),
	}
	visited := []mccmnc.PLMN{host, mccmnc.MustParse("20801"), mccmnc.MustParse("26202")}
	cat := &Catalog{Host: host, Days: 22}
	runs := map[identity.DeviceID][]DailyRecord{}
	for d := 0; d < 600; d++ {
		dev := identity.DeviceID(src.Uint64())
		tac := identity.TAC(35600000 + src.Intn(2)*64000000) // known and unknown to db
		lo := len(cat.Records)
		for day := src.Intn(22); day < 22; day += 1 + src.Intn(2) {
			cat.Records = append(cat.Records, DailyRecord{
				Device: dev, Day: day, SIM: nlSIM, TAC: tac,
				Visited:     []mccmnc.PLMN{visited[src.Intn(3)]},
				Events:      src.Intn(40),
				Calls:       src.Intn(3),
				CallSeconds: src.Exp(90),
				Bytes:       uint64(src.Intn(1 << 20)),
				RadioFlags:  radio.RATSet(src.Intn(8)),
				APNs:        []apn.APN{apns[src.Intn(3)]},
				GyrationKm:  src.Exp(3),
				HasLocation: src.Bool(0.8),
			})
		}
		runs[dev] = cat.Records[lo:len(cat.Records):len(cat.Records)]
	}
	for _, workers := range []int{1, 2, 5, 0} {
		sums := cat.SummariesWorkers(db, workers)
		if len(sums) != len(runs) {
			t.Fatalf("workers=%d: %d summaries for %d devices", workers, len(sums), len(runs))
		}
		differ := 0
		for _, got := range sums {
			alone := &Catalog{Host: host, Days: 22, Records: runs[got.Device]}
			if want := alone.SummariesWorkers(db, 1); len(want) != 1 || !reflect.DeepEqual(got, want[0]) {
				if differ++; differ <= 3 {
					t.Errorf("workers=%d: device %v: summary %+v, alone %+v", workers, got.Device, got, want)
				}
			}
		}
		if differ > 0 {
			t.Errorf("workers=%d: %d of %d devices differ from their own catalog's summary", workers, differ, len(sums))
		}
	}
}

func TestDailyRecordDedup(t *testing.T) {
	var r DailyRecord
	a := apn.MustParse("internet")
	r.AddAPN(a)
	r.AddAPN(a)
	r.AddAPN(apn.APN{}) // zero APN must be ignored
	if len(r.APNs) != 1 {
		t.Errorf("APNs = %v", r.APNs)
	}
	r.AddVisited(host)
	r.AddVisited(host)
	if len(r.Visited) != 1 {
		t.Errorf("Visited = %v", r.Visited)
	}
}

func BenchmarkBuilderIngest(b *testing.B) {
	grid := ukGrid(b)
	bl := NewBuilder(host, start, 22, grid)
	ev := radio.Event{
		Device: identity.DeviceID(1), SIM: nlSIM, Sector: 12,
		Interface: radio.IfGb, Result: radio.ResultOK,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev.Time = start.Add(time.Duration(i) * time.Second)
		ev.Device = identity.DeviceID(i % 1000)
		bl.AddRadioEvent(ev)
	}
}

// poolCatalog is a catalog of n devices, four days each, drawing their
// TACs, APNs and visited networks from fixed pools, so catalogs of any
// size hold the same distinct values.
func poolCatalog(n int) *Catalog {
	src := rng.New(11)
	apns := []apn.APN{
		apn.MustParse("internet"),
		apn.MustParse("meter.rwe-npower.co.uk"),
		apn.MustParse("smhp.centricaplc.com.mnc004.mcc204.gprs"),
	}
	visited := []mccmnc.PLMN{host, mccmnc.MustParse("20801"), mccmnc.MustParse("26202")}
	cat := &Catalog{Host: host, Days: 4, Records: make([]DailyRecord, 0, 4*n)}
	for d := 0; d < n; d++ {
		tac := identity.TAC(35600000 + src.Intn(20))
		for day := 0; day < 4; day++ {
			cat.Records = append(cat.Records, DailyRecord{
				Device: identity.DeviceID(d + 1), Day: day, SIM: nlSIM, TAC: tac,
				Visited:     []mccmnc.PLMN{visited[src.Intn(3)]},
				Events:      src.Intn(40),
				Bytes:       uint64(src.Intn(1 << 20)),
				APNs:        []apn.APN{apns[src.Intn(3)]},
				GyrationKm:  src.Exp(3),
				HasLocation: true,
			})
		}
	}
	return cat
}

// TestSummariesAllocationsPerWorker pins SummariesWorkers' allocations
// to a bound that grows with neither the device count nor the shard
// count: each worker sums one range into exactly sized arrays.
func TestSummariesAllocationsPerWorker(t *testing.T) {
	db := gsma.Synthesize(1)
	for _, n := range []int{300, 3000} {
		cat := poolCatalog(n)
		allocs := testing.AllocsPerRun(20, func() { cat.SummariesWorkers(db, 2) })
		if allocs > 32 {
			t.Errorf("%d devices: %.1f allocations per run, want at most 32", n, allocs)
		}
	}
}

// TestDevicesWalkAllocatesNothing pins the one per-device walk to zero
// allocations: Devices and the loop body inline into the caller, so
// the iterator's closures stay on its stack.
func TestDevicesWalkAllocatesNothing(t *testing.T) {
	cat := poolCatalog(3000)
	var runs, recs int
	allocs := testing.AllocsPerRun(20, func() {
		runs, recs = 0, 0
		for run := range Devices(cat.Records) {
			runs++
			recs += len(run)
		}
	})
	if allocs != 0 {
		t.Errorf("%.1f allocations per walk, want 0", allocs)
	}
	if runs != 3000 || recs != len(cat.Records) {
		t.Errorf("walked %d runs over %d records, want 3000 over %d", runs, recs, len(cat.Records))
	}
}

// TestDevices checks the runs Devices yields: each maximal run of one
// device's consecutive records, in record order, capacity-limited, and
// none after the caller breaks.
func TestDevices(t *testing.T) {
	recsOf := func(devs ...int) []DailyRecord {
		out := make([]DailyRecord, len(devs))
		for i, d := range devs {
			out[i] = DailyRecord{Device: identity.DeviceID(d), Day: i}
		}
		return out
	}
	for _, tc := range []struct {
		name string
		devs []int
		want [][]int // the Day (record index) of each run's records
	}{
		{"empty", nil, nil},
		{"one record", []int{7}, [][]int{{0}}},
		{"single-record runs", []int{3, 1, 2}, [][]int{{0}, {1}, {2}}},
		{"mixed runs", []int{5, 5, 2, 9, 9, 9}, [][]int{{0, 1}, {2}, {3, 4, 5}}},
	} {
		var got [][]int
		for run := range Devices(recsOf(tc.devs...)) {
			if cap(run) != len(run) {
				t.Errorf("%s: run of %d has capacity %d", tc.name, len(run), cap(run))
			}
			days := []int{}
			for _, r := range run {
				days = append(days, r.Day)
			}
			got = append(got, days)
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: runs %v, want %v", tc.name, got, tc.want)
		}
	}

	var seen []identity.DeviceID
	for run := range Devices(recsOf(1, 1, 2, 3, 3)) {
		seen = append(seen, run[0].Device)
		if run[0].Device == 2 {
			break
		}
	}
	if !reflect.DeepEqual(seen, []identity.DeviceID{1, 2}) {
		t.Errorf("walk after break saw %v, want [1 2]", seen)
	}
}

// TestSlabCarve checks that carved slices are empty, capacity-limited
// and disjoint, also across a chunk change and for sizes that get an
// array of their own.
func TestSlabCarve(t *testing.T) {
	var s Slab[int]
	var got [][]int
	for _, n := range []int{1, 3, slabMin, 5, slabMax, slabMax + 1, 2} {
		c := s.Carve(n)
		if len(c) != 0 || cap(c) != n {
			t.Fatalf("Carve(%d): len %d cap %d", n, len(c), cap(c))
		}
		for k := 0; k < n; k++ {
			c = append(c, len(got))
		}
		got = append(got, c)
	}
	for i, c := range got {
		for _, v := range c {
			if v != i {
				t.Fatalf("slice %d holds %d: two carved slices share elements", i, v)
			}
		}
	}
	one := s.One(7)
	if len(one) != 1 || cap(one) != 1 || one[0] != 7 {
		t.Fatalf("One(7) = %v (cap %d)", one, cap(one))
	}
}
