package ingest

import (
	"bytes"
	"io"
	"reflect"
	"sync"
	"testing"
	"time"

	"whereroam/internal/catalog"
	"whereroam/internal/cdrs"
	"whereroam/internal/identity"
	"whereroam/internal/mccmnc"
	"whereroam/internal/radio"
)

var (
	host  = mccmnc.MustParse("23410")
	nlSIM = mccmnc.MustParse("20404")
	start = time.Date(2019, 4, 5, 0, 0, 0, 0, time.UTC)
)

// synthRecords builds a deterministic feed: per device the records
// are time-ordered, which is the per-device order contract every
// ingestion path preserves.
func synthRecords(devs, hours int) []cdrs.Record {
	var recs []cdrs.Record
	for h := 0; h < hours; h++ {
		at := start.Add(time.Duration(h) * time.Hour)
		for d := 0; d < devs; d++ {
			rec := cdrs.Record{
				Device: identity.DeviceID(d), Time: at.Add(time.Duration(d) * time.Second),
				SIM: nlSIM, Visited: host, Kind: cdrs.KindData,
				RAT: radio.RAT2G, Bytes: uint64(100 + d),
			}
			if (d+h)%5 == 0 {
				rec.Kind, rec.Bytes, rec.Duration = cdrs.KindVoice, 0, time.Duration(10+d)*time.Second
			}
			recs = append(recs, rec)
		}
	}
	return recs
}

func serialCatalog(recs []cdrs.Record) *catalog.Catalog {
	b := catalog.NewBuilder(host, start, 22, nil)
	for i := range recs {
		b.AddRecord(recs[i])
	}
	return b.Build()
}

// A routed build from concurrent producers must equal a serial batch
// build record for record, for any shard count and depth — including
// depth 1, where every send exercises backpressure.
func TestCatalogIngesterMatchesSerial(t *testing.T) {
	recs := synthRecords(50, 30)
	want := serialCatalog(recs)

	for _, tc := range []struct{ shards, depth, producers int }{
		{1, 0, 1},
		{4, 0, 3},
		{8, 1, 4},
		{3, 7, 2},
	} {
		sb := catalog.NewShardedBuilder(host, start, 22, nil, tc.shards)
		in := NewCatalogIngester(sb, tc.depth)
		// Partition by device across producers: each device's chain
		// stays with one producer, as the contract requires.
		var wg sync.WaitGroup
		for p := 0; p < tc.producers; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				for i := range recs {
					if int(recs[i].Device)%tc.producers == p {
						in.OfferRecord(recs[i])
					}
				}
			}(p)
		}
		wg.Wait()
		got := in.Build(0)
		if !reflect.DeepEqual(want.Records, got.Records) {
			t.Errorf("shards=%d depth=%d producers=%d: routed catalog differs from serial",
				tc.shards, tc.depth, tc.producers)
		}
	}
}

// Close is idempotent and Build after Close reuses the drained state.
func TestCatalogIngesterCloseIdempotent(t *testing.T) {
	sb := catalog.NewShardedBuilder(host, start, 22, nil, 2)
	in := NewCatalogIngester(sb, 4)
	in.OfferRecord(cdrs.Record{Device: 1, Time: start.Add(time.Hour), SIM: nlSIM, Visited: host, Kind: cdrs.KindData, Bytes: 1})
	in.Close()
	in.Close()
	if got := in.Build(1); len(got.Records) != 1 {
		t.Fatalf("records = %d, want 1", len(got.Records))
	}
}

// A channel is a valid source: a consumer ranging over a bounded
// channel the producer closes at end of capture, and offering each
// record, builds the serial catalog.
func TestCatalogIngesterDrainStreams(t *testing.T) {
	recs := synthRecords(20, 10)
	want := serialCatalog(recs)

	sb := catalog.NewShardedBuilder(host, start, 22, nil, 3)
	in := NewCatalogIngester(sb, 16)
	cs := make(chan cdrs.Record, 8)
	go func() {
		for i := range recs {
			cs <- recs[i]
		}
		close(cs)
	}()
	for rec := range cs {
		in.OfferRecord(rec)
	}
	if got := in.Build(0); !reflect.DeepEqual(want.Records, got.Records) {
		t.Error("channel-drained catalog differs from serial")
	}
}

// The national-feed shape: records decoded off the binary CDR wire
// format one at a time and offered to the router build the catalog of
// the records that were encoded.
func TestCatalogIngesterReadRecords(t *testing.T) {
	recs := synthRecords(30, 12)
	var buf bytes.Buffer
	if err := cdrs.WriteAll(&buf, recs); err != nil {
		t.Fatal(err)
	}
	want := serialCatalog(recs)

	sb := catalog.NewShardedBuilder(host, start, 22, nil, 4)
	in := NewCatalogIngester(sb, 8)
	rd := cdrs.NewReader(&buf)
	n := 0
	for {
		var rec cdrs.Record
		if err := rd.Read(&rec); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		in.OfferRecord(rec)
		n++
	}
	if n != len(recs) {
		t.Fatalf("ingested %d records, want %d", n, len(recs))
	}
	if got := in.Build(0); !reflect.DeepEqual(want.Records, got.Records) {
		t.Error("codec-fed catalog differs from serial")
	}
}
