package dataset

import (
	"cmp"
	"math"
	"math/bits"
	"slices"
	"time"
)

// timeSorter is sortByTime's key scratch. The zero value is ready to
// use; a sorter held across calls (emitBufs, a shard's walk) reuses
// its backing array. Not safe for concurrent use.
type timeSorter struct {
	// keys holds one packed key per element: the first pass stores
	// each instant's unix nanoseconds, the packed path turns them into
	// (offset from the minimum) << idxBits | index in place, and after
	// the sort the low bits name the element that belongs at each slot.
	keys []uint64
	// wide is the fallback's (nanos, index) keys, for inputs whose
	// span and length do not fit one uint64 together; it stays nil on
	// every input the generators make.
	wide []timeKey
}

// timeKey is one element's unpacked sort key: its instant and its
// position in the input.
type timeKey struct {
	nanos int64
	idx   int
}

// sortByTime stable-orders xs by at, ascending: elements with equal
// instants keep their input order, exactly as
//
//	sort.SliceStable(xs, func(i, j int) bool { return at(&xs[i]).Before(at(&xs[j])) })
//
// would leave them. It is the one time sort of the generators — the
// per-device order contract and the tie rule the streaming planes
// reproduce (serial emission order) both rest on it.
//
// It reads each element's unix-nano instant once and returns early
// when they already ascend. Otherwise it sorts keys under the total
// order (nanos, index), which is the stable order, so an unstable
// sort of small pointer-free keys stands in for a stable merge of the
// elements; each element then moves once, in place, along the cycles
// of the resulting permutation. The keys are packed: with n elements
// whose instants span s nanoseconds, (nanos − min) << bits.Len(n−1) |
// index is one uint64 whenever bits.Len64(s) + bits.Len(n−1) ≤ 64 —
// 85 events a day need 7 index bits and leave 57 for a span of four
// years — and orders exactly as (nanos, index), so a plain integer
// sort does the work. Inputs that do not fit fall back to sorting
// (nanos, index) pairs through a comparator. Instants must lie within
// time.Time.UnixNano's range (years 1678–2262). With warm scratch it
// allocates nothing.
func sortByTime[T any](s *timeSorter, xs []T, at func(*T) time.Time) {
	n := len(xs)
	if n < 2 {
		return
	}
	keys := slices.Grow(s.keys[:0], n)[:n]
	s.keys = keys
	ascending := true
	lo, hi := int64(math.MaxInt64), int64(math.MinInt64)
	for i := range xs {
		ns := at(&xs[i]).UnixNano()
		if i > 0 && ns < int64(keys[i-1]) {
			ascending = false
		}
		keys[i] = uint64(ns)
		lo, hi = min(lo, ns), max(hi, ns)
	}
	if ascending {
		return
	}
	idxBits := bits.Len(uint(n - 1))
	mask := uint64(1)<<idxBits - 1
	if span := uint64(hi) - uint64(lo); bits.Len64(span)+idxBits <= 64 {
		for i := range keys {
			keys[i] = (keys[i]-uint64(lo))<<idxBits | uint64(i)
		}
		slices.Sort(keys)
	} else {
		s.sortWide(keys)
		mask = math.MaxUint64
	}
	// keys[j]&mask names the element that belongs at j. Follow each
	// cycle once, marking visited slots as fixed points.
	for i := range keys {
		if keys[i]&mask == uint64(i) {
			continue
		}
		held := xs[i]
		j := i
		for {
			from := int(keys[j] & mask)
			keys[j] = uint64(j)
			if from == i {
				break
			}
			xs[j] = xs[from]
			j = from
		}
		xs[j] = held
	}
}

// sortWide is sortByTime's fallback: keys holds unix nanoseconds on
// entry and, on return, the index of the element that belongs at each
// slot.
func (s *timeSorter) sortWide(keys []uint64) {
	wide := s.wide[:0]
	for i, ns := range keys {
		wide = append(wide, timeKey{nanos: int64(ns), idx: i})
	}
	s.wide = wide
	//roamvet:stablesort-ok total order (ns, idx)
	slices.SortFunc(wide, func(a, b timeKey) int {
		if c := cmp.Compare(a.nanos, b.nanos); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})
	for j := range wide {
		keys[j] = uint64(wide[j].idx)
	}
}
