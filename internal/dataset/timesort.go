package dataset

import (
	"cmp"
	"math"
	"slices"
	"time"
)

// timeKey is one element's sort key: its instant and its position in
// the input. It holds no pointer, so ordering keys moves 16 bytes at a
// time with no write barrier — where the elements themselves are
// 70–100-byte structs that each carry a *time.Location.
type timeKey struct {
	nanos int64
	idx   int
}

// timeSorter is sortByTime's key scratch. The zero value is ready to
// use; a sorter held across calls (emitBufs, a shard's walk) reuses
// its backing array. Not safe for concurrent use.
type timeSorter struct {
	keys []timeKey
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
// It extracts a (unix-nano, index) key per element and returns early
// when the keys already ascend. Otherwise it sorts the keys under the
// total order (nanos, idx), which is the stable order, so an unstable
// sort of small pointer-free keys stands in for a stable merge of the
// elements; each element then moves once, in place, along the cycles
// of the resulting permutation. Instants must lie within
// time.Time.UnixNano's range (years 1678–2262).
func sortByTime[T any](s *timeSorter, xs []T, at func(*T) time.Time) {
	if len(xs) < 2 {
		return
	}
	keys := s.keys[:0]
	ascending, prev := true, int64(math.MinInt64)
	for i := range xs {
		ns := at(&xs[i]).UnixNano()
		ascending = ascending && ns >= prev
		prev = ns
		keys = append(keys, timeKey{nanos: ns, idx: i})
	}
	s.keys = keys
	if ascending {
		return
	}
	//roamvet:stablesort-ok total order (ns, idx)
	slices.SortFunc(keys, func(a, b timeKey) int {
		if c := cmp.Compare(a.nanos, b.nanos); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})
	// keys[j].idx names the element that belongs at j. Follow each
	// cycle once, marking visited slots as fixed points.
	for i := range keys {
		if keys[i].idx == i {
			continue
		}
		held := xs[i]
		j := i
		for {
			from := keys[j].idx
			keys[j].idx = j
			if from == i {
				break
			}
			xs[j] = xs[from]
			j = from
		}
		xs[j] = held
	}
}
