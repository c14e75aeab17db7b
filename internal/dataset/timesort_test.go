package dataset

import (
	"encoding/binary"
	"math"
	"math/bits"
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
	for i, id := range ids(xs) {
		if id != i {
			t.Fatalf("slot %d holds element %d: ascending input was permuted", i, id)
		}
	}
	allocs := testing.AllocsPerRun(100, func() { sortByTime(&s, xs, stampedTime) })
	if allocs != 0 {
		t.Fatalf("%.1f allocations per call with warm scratch, want 0", allocs)
	}
}

// packedFits reports whether sortByTime takes the packed path for n
// elements whose instants span span nanoseconds.
func packedFits(n int, span uint64) bool {
	return bits.Len64(span)+bits.Len(uint(n-1)) <= 64
}

// stampedNanos builds elements at the given unix-nano instants.
func stampedNanos(nanos []int64) []stamped {
	xs := make([]stamped, len(nanos))
	for i, ns := range nanos {
		xs[i] = stamped{at: time.Unix(0, ns).UTC(), id: i, loc: time.UTC}
	}
	return xs
}

func checkSortByTimeNanos(t *testing.T, s *timeSorter, name string, nanos []int64) {
	t.Helper()
	got, want := stampedNanos(nanos), stampedNanos(nanos)
	sort.SliceStable(want, func(i, j int) bool { return want[i].at.Before(want[j].at) })
	sortByTime(s, got, stampedTime)
	if !slices.Equal(got, want) {
		t.Fatalf("%s (n=%d): sortByTime differs from sort.SliceStable\n got %v\nwant %v", name, len(nanos), ids(got), ids(want))
	}
}

// Both key paths agree with the stable reference where they meet: n
// around a power of two, so the index takes k or k+1 bits, and spans
// just inside and just past the 64 − k bits left for the offset —
// with instants before 1970 (negative unix nanoseconds), ties and
// all-tie inputs among them.
func TestSortByTimeBothPathsAtTheBitBoundary(t *testing.T) {
	src := rng.New(42)
	var s timeSorter
	paths := map[bool]int{}
	// The earliest instant UnixNano represents, 1677-09-21.
	floor := int64(math.MinInt64)
	for k := 1; k <= 12; k++ {
		for _, n := range []int{1<<k - 1, 1 << k, 1<<k + 1} {
			if n < 2 {
				continue
			}
			idxBits := bits.Len(uint(n - 1))
			for _, span := range []uint64{
				1<<(64-idxBits) - 1, // the widest span that packs
				1 << (64 - idxBits), // one bit too wide
			} {
				if span > math.MaxUint64/2 {
					// Instants cover at most 2^64 − 1 nanoseconds, and
					// the test keeps to a lower half for headroom.
					span = math.MaxUint64 / 2
				}
				lo := floor + src.Int63n(1<<40) // pre-1970
				nanos := make([]int64, n)
				for i := range nanos {
					nanos[i] = lo + int64(src.Uint64()%(span+1))
				}
				// Pin both ends so the span is exactly span, then tie
				// a few elements to them.
				nanos[src.Intn(n)] = lo
				nanos[src.Intn(n)] = lo + int64(span)
				nanos[src.Intn(n)] = lo
				paths[packedFits(n, span)]++
				checkSortByTimeNanos(t, &s, "boundary", nanos)
				slices.Reverse(nanos)
				checkSortByTimeNanos(t, &s, "boundary reversed", nanos)
			}
			tie := make([]int64, n)
			for i := range tie {
				tie[i] = floor + 1
			}
			checkSortByTimeNanos(t, &s, "all tied, pre-1970", tie)
		}
	}
	if paths[true] == 0 || paths[false] == 0 {
		t.Fatalf("packed path taken %d times, fallback %d times: both must run", paths[true], paths[false])
	}
}

// A sorter that has seen an input of a size sorts any unsorted input
// up to that size without allocating, on the packed path.
func TestSortByTimeWarmAllocatesNothing(t *testing.T) {
	src := rng.New(7)
	offsets := make([]int64, 85)
	for i := range offsets {
		offsets[i] = src.Int63n(int64(24*time.Hour)) / int64(time.Second) * int64(time.Second)
	}
	template := stampedAt(offsets)
	xs := slices.Clone(template)
	var s timeSorter
	sortByTime(&s, xs, stampedTime)
	allocs := testing.AllocsPerRun(100, func() {
		copy(xs, template)
		sortByTime(&s, xs, stampedTime)
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocations per unsorted 85-element sort with warm scratch, want 0", allocs)
	}
}

// FuzzSortByTime checks sortByTime, packed path and fallback alike,
// against sort.SliceStable on instants anywhere in UnixNano's range.
// Each 8-byte chunk of data is one instant; the first byte of shift
// narrows them, so small spans and ties are common too.
func FuzzSortByTime(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16}, uint8(0))
	// MaxInt64, MinInt64, 0: the full range, so the fallback runs.
	f.Add([]byte{255, 255, 255, 255, 255, 255, 255, 127, 0, 0, 0, 0, 0, 0, 0, 128, 0, 0, 0, 0, 0, 0, 0, 0}, uint8(0))
	f.Add([]byte{9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9}, uint8(60))
	var s timeSorter
	f.Fuzz(func(t *testing.T, data []byte, shift uint8) {
		nanos := make([]int64, 0, len(data)/8)
		for ; len(data) >= 8; data = data[8:] {
			nanos = append(nanos, int64(binary.LittleEndian.Uint64(data))>>(shift%64))
		}
		checkSortByTimeNanos(t, &s, "fuzz", nanos)
	})
}
