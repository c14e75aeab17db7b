package dataset

import (
	"slices"
	"sort"
	"testing"
	"time"

	"whereroam/internal/rng"
)

// stamped is a sortByTime test element: id is its position in the
// input, so comparing whole elements checks identity — which of two
// tied elements came first — not just that the keys ascend.
type stamped struct {
	at  time.Time
	id  int
	loc *time.Location // pointerful, like the records the generators sort
}

func stampedTime(s *stamped) time.Time { return s.at }

func stampedAt(offsets []int64) []stamped {
	base := time.Date(2019, 4, 1, 0, 0, 0, 0, time.UTC)
	xs := make([]stamped, len(offsets))
	for i, off := range offsets {
		xs[i] = stamped{at: base.Add(time.Duration(off)), id: i, loc: time.UTC}
	}
	return xs
}

func checkSortByTime(t *testing.T, s *timeSorter, name string, offsets []int64) {
	t.Helper()
	got, want := stampedAt(offsets), stampedAt(offsets)
	sort.SliceStable(want, func(i, j int) bool { return want[i].at.Before(want[j].at) })
	sortByTime(s, got, stampedTime)
	if !slices.Equal(got, want) {
		t.Fatalf("%s (n=%d): sortByTime differs from sort.SliceStable\n got %v\nwant %v", name, len(offsets), ids(got), ids(want))
	}
}

func ids(xs []stamped) []int {
	out := make([]int, len(xs))
	for i := range xs {
		out[i] = xs[i].id
	}
	return out
}

func TestSortByTimeMatchesSliceStable(t *testing.T) {
	src := rng.New(21)
	// One sorter across every case: scratch left by a longer input must
	// not leak into a shorter one.
	var s timeSorter

	checkSortByTime(t, &s, "empty", nil)
	checkSortByTime(t, &s, "single", []int64{5})
	for trial := 0; trial < 300; trial++ {
		n := 2 + src.Intn(200)
		offsets := make([]int64, n)

		// Tie-heavy: far fewer distinct instants than elements, at
		// second and at nanosecond granularity.
		distinct := int64(1 + src.Intn(8))
		for i := range offsets {
			offsets[i] = src.Int63n(distinct) * int64(time.Second)
		}
		checkSortByTime(t, &s, "tie-heavy seconds", offsets)
		for i := range offsets {
			offsets[i] = src.Int63n(distinct)
		}
		checkSortByTime(t, &s, "tie-heavy nanos", offsets)

		for i := range offsets {
			offsets[i] = src.Int63n(int64(22 * 24 * time.Hour))
		}
		checkSortByTime(t, &s, "random", offsets)

		slices.Sort(offsets)
		checkSortByTime(t, &s, "already sorted", offsets)
		slices.Reverse(offsets)
		checkSortByTime(t, &s, "reversed", offsets)

		for i := range offsets {
			offsets[i] = 42
		}
		checkSortByTime(t, &s, "all equal", offsets)
	}
}

// The early return is what keeps the per-device-day sorts of an
// already-ordered day free: no key sort, no element moved.
func TestSortByTimeLeavesAscendingInputAlone(t *testing.T) {
	xs := stampedAt([]int64{1, 1, 2, 3, 3, 3, 9})
	var s timeSorter
	sortByTime(&s, xs, stampedTime)
	for i, k := range s.keys {
		if k.idx != i {
			t.Fatalf("key %d names element %d: ascending input was permuted", i, k.idx)
		}
	}
	allocs := testing.AllocsPerRun(100, func() { sortByTime(&s, xs, stampedTime) })
	if allocs != 0 {
		t.Fatalf("%.1f allocations per call with warm scratch, want 0", allocs)
	}
}
