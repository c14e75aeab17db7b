package catalog

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"whereroam/internal/apn"
	"whereroam/internal/cdrs"
	"whereroam/internal/identity"
	"whereroam/internal/mccmnc"
	"whereroam/internal/radio"
	"whereroam/internal/rng"
)

// splitDays is the window of the split-fold feeds.
const splitDays = 4

// feedItem is one entry of a mixed feed: a radio event or a CDR/xDR.
type feedItem struct {
	ev  *radio.Event
	rec *cdrs.Record
}

func (it feedItem) addTo(b *Builder) {
	if it.ev != nil {
		b.AddRadioEvent(*it.ev)
	} else {
		b.AddRecord(*it.rec)
	}
}

var (
	splitAPNs = []apn.APN{
		apn.MustParse("smhp.centricaplc.com"),
		apn.MustParse("iot.example"),
		apn.MustParse("fleet.example"),
		{},
	}
	splitVisited = []mccmnc.PLMN{host, nlSIM, mccmnc.MustParse("26201")}
	// splitDurations mix nanoseconds with hours: summed as float
	// seconds, their total would depend on the grouping.
	splitDurations = []time.Duration{1, 100 * time.Millisecond, 3*time.Hour + 1, 7, 333*time.Millisecond + 3}
)

// splitItem decodes one feed entry from four selector values: device,
// kind, hour offset (past the window end for some) and a variant that
// picks APN, visited network, duration, TAC and radio result.
func splitItem(dev, kind, hour, variant int) feedItem {
	d := identity.DeviceID(dev)
	at := start.Add(time.Duration(hour)*time.Hour + time.Duration(variant)*time.Second)
	switch kind % 3 {
	case 0:
		var tac identity.TAC
		if variant%4 == 3 {
			// A late TAC backfills the day; a later, different one must
			// not replace it.
			tac = identity.TAC(35600000 + 1000*dev + variant)
		}
		res := radio.ResultOK
		if variant%5 == 0 {
			res = radio.ResultFail
		}
		return feedItem{ev: &radio.Event{Device: d, Time: at, SIM: nlSIM, TAC: tac,
			Interface: radio.Interface(variant % 6), Result: res}}
	case 1:
		return feedItem{rec: &cdrs.Record{Device: d, Time: at, SIM: nlSIM,
			Visited: splitVisited[variant%len(splitVisited)], Kind: cdrs.KindVoice,
			RAT: radio.RAT(variant % 3), Duration: splitDurations[variant%len(splitDurations)]}}
	default:
		return feedItem{rec: &cdrs.Record{Device: d, Time: at, SIM: nlSIM,
			Visited: splitVisited[(variant+dev)%len(splitVisited)], Kind: cdrs.KindData,
			RAT: radio.RAT(variant % 3), Bytes: uint64(variant * 1000), APN: splitAPNs[(variant+dev)%len(splitAPNs)]}}
	}
}

// splitFeed is an hour-by-hour mixed feed in which every device
// recurs throughout, so any cut lands inside some device's days.
func splitFeed() []feedItem {
	var feed []feedItem
	for step := 0; step < 400; step++ {
		feed = append(feed, splitItem(step%7, step/7+step, step/5, step*13%17))
	}
	return feed
}

// foldSplit feeds consecutive ranges of feed, cut at cuts (ascending),
// into one builder each and folds them in range order.
func foldSplit(feed []feedItem, cuts []int) *Catalog {
	var acc *Builder
	lo := 0
	for _, hi := range append(slices.Clone(cuts), len(feed)) {
		b := NewBuilder(host, start, splitDays, nil)
		for _, it := range feed[lo:hi] {
			it.addTo(b)
		}
		if acc == nil {
			acc = b
		} else {
			acc.Merge(b)
		}
		lo = hi
	}
	return acc.Build()
}

// TestBuilderAnyContiguousSplitMatchesSerial pins the premise of the
// per-worker replay fold: whatever contiguous ranges a feed is cut
// into, folding one builder per range in range order equals the serial
// build — counts, first-seen SIM, backfilled TAC, first-seen visited
// and APN order, and the integer call duration behind CallSeconds.
func TestBuilderAnyContiguousSplitMatchesSerial(t *testing.T) {
	feed := splitFeed()
	want := foldSplit(feed, nil)
	var multiAPN, multiVisited, backfilled, calls bool
	for _, r := range want.Records {
		multiAPN = multiAPN || len(r.APNs) > 1
		multiVisited = multiVisited || len(r.Visited) > 2
		backfilled = backfilled || r.TAC != 0
		calls = calls || r.Calls > 1
	}
	if !multiAPN || !multiVisited || !backfilled || !calls {
		t.Fatalf("feed does not exercise the fold: multi-APN %v, multi-visited %v, TAC %v, calls %v",
			multiAPN, multiVisited, backfilled, calls)
	}
	src := rng.New(1)
	for k := 1; k <= 8; k++ {
		for trial := 0; trial < 25; trial++ {
			cuts := make([]int, k-1)
			for i := range cuts {
				cuts[i] = src.Intn(len(feed) + 1)
			}
			slices.Sort(cuts)
			if got := foldSplit(feed, cuts); !reflect.DeepEqual(want.Records, got.Records) {
				t.Fatalf("k=%d cuts=%v: folded catalog differs from the serial build", k, cuts)
			}
		}
	}
}

// FuzzBuilderSplit draws both the feed and the cut points from the
// input: byte 0 gives the number of cuts, the next bytes their
// positions, and every following four bytes one feed entry.
func FuzzBuilderSplit(f *testing.F) {
	f.Add([]byte{2, 1, 3, 0, 0, 0, 0, 1, 1, 2, 3, 2, 2, 30, 4, 0, 1, 50, 9, 1, 2, 5, 7})
	f.Add([]byte{0, 4, 2, 99, 3, 4, 5, 6, 7})
	f.Add([]byte{7, 0, 0, 1, 1, 2, 2, 9, 3, 1, 1, 1, 3, 1, 1, 2, 3, 1, 2, 3, 1, 1, 50, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		k := int(data[0]) % 8
		data = data[1:]
		if len(data) < k {
			return
		}
		raw, body := data[:k], data[k:]
		var feed []feedItem
		for ; len(body) >= 4; body = body[4:] {
			feed = append(feed, splitItem(int(body[0]%6), int(body[1]), int(body[2]%(24*splitDays+12)), int(body[3])))
		}
		cuts := make([]int, k)
		for i, c := range raw {
			cuts[i] = int(c) % (len(feed) + 1)
		}
		slices.Sort(cuts)
		want, got := foldSplit(feed, nil), foldSplit(feed, cuts)
		if !reflect.DeepEqual(want.Records, got.Records) {
			t.Fatalf("cuts=%v over %d entries: folded catalog differs from the serial build", cuts, len(feed))
		}
	})
}
