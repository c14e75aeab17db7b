package catalog

import (
	"reflect"
	"testing"
	"time"

	"whereroam/internal/cdrs"
	"whereroam/internal/identity"
	"whereroam/internal/radio"
)

// synthStreams builds a deterministic mixed event load over many
// devices, returning the streams in time order.
func synthStreams(devs, hours int) ([]radio.Event, []cdrs.Record) {
	var evs []radio.Event
	var recs []cdrs.Record
	for h := 0; h < hours; h++ {
		at := start.Add(time.Duration(h) * time.Hour)
		for d := 0; d < devs; d++ {
			dev := identity.DeviceID(d)
			res := radio.ResultOK
			if (d+h)%7 == 0 {
				res = radio.ResultFail
			}
			evs = append(evs, radio.Event{
				Device: dev, Time: at.Add(time.Duration(d) * time.Second),
				SIM: nlSIM, TAC: identity.TAC(35600000 + d%3), Sector: radio.SectorID(d % 40),
				Interface: radio.IfGb, Result: res,
			})
			if d%2 == 0 {
				recs = append(recs, cdrs.Record{
					Device: dev, Time: at.Add(time.Duration(d) * time.Second),
					SIM: nlSIM, Visited: host, Kind: cdrs.KindData,
					RAT: radio.RAT2G, Bytes: uint64(100 + d),
				})
			}
		}
	}
	return evs, recs
}

func ingestAll(b *Builder, evs []radio.Event, recs []cdrs.Record) {
	for i := range evs {
		b.AddRadioEvent(evs[i])
	}
	for i := range recs {
		b.AddRecord(recs[i])
	}
}

// A sharded build over device-routed streams must equal a serial
// single-builder build record for record.
func TestShardedBuilderMatchesSerial(t *testing.T) {
	grid := ukGrid(t)
	evs, recs := synthStreams(60, 30)

	serial := NewBuilder(host, start, 22, grid)
	ingestAll(serial, evs, recs)
	want := serial.Build()

	for _, shards := range []int{1, 3, 8} {
		sb := NewShardedBuilder(host, start, 22, grid, shards)
		for i := range evs {
			sb.Builder(sb.ShardFor(evs[i].Device)).AddRadioEvent(evs[i])
		}
		for i := range recs {
			sb.Builder(sb.ShardFor(recs[i].Device)).AddRecord(recs[i])
		}
		got := sb.Build(0)
		if !reflect.DeepEqual(want.Records, got.Records) {
			t.Errorf("shards=%d: sharded build differs from serial", shards)
		}
	}
}

// Merging device-disjoint builders must equal one builder that saw
// both streams.
func TestBuilderMergeDeviceDisjoint(t *testing.T) {
	grid := ukGrid(t)
	evs, recs := synthStreams(40, 20)

	serial := NewBuilder(host, start, 22, grid)
	ingestAll(serial, evs, recs)
	want := serial.Build()

	a := NewBuilder(host, start, 22, grid)
	b := NewBuilder(host, start, 22, grid)
	for i := range evs {
		if evs[i].Device%2 == 0 {
			a.AddRadioEvent(evs[i])
		} else {
			b.AddRadioEvent(evs[i])
		}
	}
	for i := range recs {
		if recs[i].Device%2 == 0 {
			a.AddRecord(recs[i])
		} else {
			b.AddRecord(recs[i])
		}
	}
	a.Merge(b)
	got := a.Build()
	if !reflect.DeepEqual(want.Records, got.Records) {
		t.Error("merged device-disjoint builders differ from a single builder")
	}
}

// Merge on overlapping devices combines field-wise: counts add,
// visited networks union.
func TestBuilderMergeOverlappingDevice(t *testing.T) {
	dev := identity.DeviceID(7)
	at := start.Add(2 * time.Hour)
	a := NewBuilder(host, start, 22, nil)
	b := NewBuilder(host, start, 22, nil)
	a.AddRadioEvent(radio.Event{Device: dev, Time: at, SIM: nlSIM, Interface: radio.IfGb, Result: radio.ResultOK})
	b.AddRadioEvent(radio.Event{Device: dev, Time: at.Add(time.Hour), SIM: nlSIM, Interface: radio.IfGb, Result: radio.ResultFail})
	b.AddRecord(cdrs.Record{Device: dev, Time: at, SIM: nlSIM, Visited: nlSIM, Kind: cdrs.KindData, RAT: radio.RAT2G, Bytes: 42})
	a.Merge(b)
	cat := a.Build()
	if len(cat.Records) != 1 {
		t.Fatalf("records = %d, want 1", len(cat.Records))
	}
	r := cat.Records[0]
	if r.Events != 2 || r.FailedEvents != 1 {
		t.Errorf("events = %d/%d, want 2/1", r.Events, r.FailedEvents)
	}
	if r.Bytes != 42 {
		t.Errorf("bytes = %d, want 42", r.Bytes)
	}
	if len(r.Visited) != 2 {
		t.Errorf("visited = %v, want host and NL", r.Visited)
	}
}

// SummariesWorkers must return identical summaries — ordering, APN
// first-seen order and float accumulations included — at any worker
// count.
func TestSummariesWorkerInvariance(t *testing.T) {
	grid := ukGrid(t)
	evs, recs := synthStreams(80, 40)
	b := NewBuilder(host, start, 22, grid)
	ingestAll(b, evs, recs)
	cat := b.Build()

	want := cat.SummariesWorkers(nil, 1)
	if len(want) != 80 {
		t.Fatalf("summaries = %d, want 80", len(want))
	}
	for _, workers := range []int{2, 5, 0} {
		got := cat.SummariesWorkers(nil, workers)
		if !reflect.DeepEqual(want, got) {
			t.Errorf("workers=%d: summaries differ from serial", workers)
		}
	}
}
