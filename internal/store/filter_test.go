package store

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"whereroam/internal/apn"
	"whereroam/internal/cdrs"
	"whereroam/internal/mccmnc"
)

// keepRecordOracle is a query's record predicate on a decoded record,
// its day taken by dayOf: the reference the frame filter is held to.
func keepRecordOracle(q Query, start time.Time, rec *cdrs.Record) bool {
	day := dayOf(rec.Time, start)
	if q.hasDays && (day < q.dayLo || day > q.dayHi) {
		return false
	}
	if q.hasDevs && (uint64(rec.Device) < q.devLo || uint64(rec.Device) > q.devHi) {
		return false
	}
	if q.hasVisited && rec.Visited != q.visited {
		return false
	}
	return true
}

// The frame filter's day is dayOf's for every nanosecond instant,
// Time.Sub's saturation included, at every start a manifest can hold:
// RFC 3339 years 0 to 9999 in any zone, inside the int64 nanosecond
// range or outside it.
func TestDayClockMatchesDayOf(t *testing.T) {
	const day = int64(24 * time.Hour)
	starts := []time.Time{
		testStart,
		time.Unix(0, 0).UTC(),
		time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(1, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(9999, 12, 31, 23, 59, 59, 999999999, time.UTC),
		time.Unix(0, math.MinInt64).UTC(),
		time.Unix(0, math.MaxInt64).UTC(),
		time.Unix(0, math.MinInt64).Add(-1),
		time.Unix(0, math.MaxInt64).Add(1),
		time.Unix(0, math.MinInt64+day/2),
		time.Unix(0, math.MaxInt64-day/2),
		testStart.In(time.FixedZone("+05:30", 5*3600+1800)),
		time.Now(), // carries a monotonic reading
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for range 64 {
		starts = append(starts, time.Unix(0, int64(rng.Uint64())))
		starts = append(starts, time.Date(rng.IntN(10000), time.January, 1, 0, 0, 0, rng.IntN(1e9), time.UTC).
			Add(time.Duration(rng.Int64N(365*day))))
	}
	for _, start := range starts {
		c := newDayClock(start)
		sn := start.UnixNano()
		ns := []int64{math.MinInt64, math.MinInt64 + 1, math.MaxInt64, math.MaxInt64 - 1, 0, -1, 1}
		for _, d := range []int64{0, 1, -1, day, -day, day - 1, -day + 1, day + 1, -day - 1} {
			ns = append(ns, sn+d) // wraps at the edges, which is more edges
		}
		for range 64 {
			ns = append(ns, int64(rng.Uint64()), sn+rng.Int64N(1<<40)-1<<39)
		}
		for _, n := range ns {
			if got, want := c.day(n), dayOf(time.Unix(0, n).UTC(), start); got != want {
				t.Fatalf("start %v: day(%d) = %d, dayOf = %d", start, n, got, want)
			}
		}
	}
}

// filterTestStore writes recs into a fresh store of segRecords-record
// segments whose window is days long, and opens it.
func filterTestStore(t *testing.T, days, segRecords int, recs []cdrs.Record) *Reader {
	t.Helper()
	dir := t.TempDir()
	writeStore(t, dir, days, segRecords, recs)
	r, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// Every replay's stats are those of the record-level oracle over the
// segments the plan selects: RecordsRead counts every record of a read
// segment although the filter decodes only the kept ones, and the
// records a sequential replay delivers are the oracle's, in order.
func TestReplayStatsMatchRecordOracle(t *testing.T) {
	const days, window, seg = 6, 5, 50
	recs := feedRecords(40, days)
	r := filterTestStore(t, window, seg, recs)
	man := r.Manifest()
	dev := recs[14].Device
	queries := map[string]Query{
		"whole":   {},
		"device":  Query{}.Device(dev),
		"devices": Query{}.Devices(recs[4].Device, recs[30].Device),
		"day":     Query{}.Days(2, 2),
		"days":    Query{}.Days(1, 3),
		"past":    Query{}.Days(4, 9),
		"visited": Query{}.VisitedHost(mccmnc.MustParse("26201")),
		"all":     Query{}.Days(1, 4).Device(dev).VisitedHost(recs[14].Visited),
	}
	for name, q := range queries {
		t.Run(name, func(t *testing.T) {
			plan := r.Plan(q)
			want := ReplayStats{
				SegmentsTotal:       len(man.Segments),
				SegmentsRead:        len(plan.Selected),
				SegmentsPruned:      plan.PrunedRange + plan.PrunedBloom,
				SegmentsPrunedBloom: plan.PrunedBloom,
			}
			var kept []cdrs.Record
			catalogWant := want
			for k := range man.Segments {
				si := &man.Segments[k]
				if !slices.Contains(plan.Selected, si.Name) {
					continue
				}
				want.BytesRead += si.BodyBytes
				want.RecordsRead += int64(si.Records)
				for i := k * seg; i < min((k+1)*seg, len(recs)); i++ {
					if !keepRecordOracle(q, testStart, &recs[i]) {
						continue
					}
					kept = append(kept, recs[i])
					if d := dayOf(recs[i].Time, testStart); d < window && !recs[i].Time.Before(testStart) {
						catalogWant.RecordsKept++
					} else {
						catalogWant.RecordsOutsideWindow++
					}
				}
			}
			want.RecordsKept = int64(len(kept))
			catalogWant.BytesRead, catalogWant.RecordsRead = want.BytesRead, want.RecordsRead

			var got []cdrs.Record
			stats, err := r.ReplayRecords(q, func(rec cdrs.Record) { got = append(got, rec) })
			if err != nil {
				t.Fatal(err)
			}
			if *stats != want {
				t.Errorf("ReplayRecords stats %+v, oracle %+v", *stats, want)
			}
			if !reflect.DeepEqual(got, kept) {
				t.Errorf("ReplayRecords delivered %d records, oracle keeps %d (or they differ)", len(got), len(kept))
			}
			for _, workers := range []int{1, 3} {
				_, stats, err := r.Replay(q, workers)
				if err != nil {
					t.Fatal(err)
				}
				if *stats != catalogWant {
					t.Errorf("Replay(workers=%d) stats %+v, oracle %+v", workers, *stats, catalogWant)
				}
			}
		})
	}
}

// A record the query drops is still checked: a CRC-valid segment whose
// dropped record names an APN apn.Parse rejects fails every read path
// with the error an unfiltered read gives, at the same record, and a
// sequential replay's partial stats count the validated prefix.
func TestDroppedRecordStillValidated(t *testing.T) {
	const days, seg, bad = 3, 60, 50
	recs := feedRecords(20, days) // 40 records a day
	// recs[50] is a data record of day 1 (device 5), in segment 0
	// with all of day 0 and the first half of day 1. A writer emits
	// the APN (it fits the wire), a reader refuses it (over 100
	// octets).
	long := strings.Repeat("a", 120)
	recs[bad].APN = apn.APN{NetworkID: long}
	_, parseErr := apn.Parse(long)
	if parseErr == nil {
		t.Fatal("apn.Parse accepts the long APN")
	}
	r := filterTestStore(t, days, seg, recs)
	seg0 := r.Manifest().Segments[0].Name
	want := fmt.Sprintf("%v: %s record %d: cdrs: record %d: %v", ErrCorrupt, seg0, bad, bad, parseErr)

	dev := recs[4].Device // device 2: records 4, 5 (day 0), 44, 45 (day 1) in segment 0
	queries := []struct {
		name string
		q    Query
		kept int64 // of the 50 records before the bad one
	}{
		{"device", Query{}.Device(dev), 4},
		{"day", Query{}.Days(0, 0), 40},
	}
	for _, tc := range queries {
		t.Run(tc.name, func(t *testing.T) {
			if keepRecordOracle(tc.q, testStart, &recs[bad]) {
				t.Fatal("the query keeps the bad record; the test needs it dropped")
			}
			check := func(what string, err error) {
				t.Helper()
				if !errors.Is(err, ErrCorrupt) || err.Error() != want {
					t.Errorf("%s: error %v, want %q", what, err, want)
				}
			}
			for _, workers := range []int{1, 2} {
				_, _, err := r.Replay(tc.q, workers)
				check(fmt.Sprintf("Replay(workers=%d)", workers), err)
			}
			stats, err := r.ReplayRecords(tc.q, func(cdrs.Record) {})
			check("ReplayRecords", err)
			plan := r.Plan(tc.q)
			wantStats := ReplayStats{
				SegmentsTotal:       len(r.Manifest().Segments),
				SegmentsPruned:      plan.PrunedRange + plan.PrunedBloom,
				SegmentsPrunedBloom: plan.PrunedBloom,
				RecordsRead:         bad,
				RecordsKept:         tc.kept,
			}
			if stats == nil || *stats != wantStats {
				t.Errorf("ReplayRecords partial stats %+v, want %+v", stats, wantStats)
			}
			_, err = Compact(filepath.Join(t.TempDir(), "out"), []string{r.Dir()}, CompactOptions{Query: tc.q})
			check("Compact", err)
		})
	}
	rep := r.Verify()
	if len(rep.Corrupt) != 1 || rep.Corrupt[0].Name != seg0 || rep.Corrupt[0].Err != want {
		t.Errorf("Verify reports %+v, want %s: %q", rep.Corrupt, seg0, want)
	}
}
