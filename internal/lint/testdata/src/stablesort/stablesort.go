// Package stablesort is a roamvet fixture exercising the stablesort
// analyzer: unstable sorts over timestamp keys, the stable and
// total-order-key alternatives, and annotation suppression.
package stablesort

import (
	"cmp"
	"slices"
	"sort"
	"time"
)

type event struct {
	At   time.Time
	Name string
}

type sample struct {
	StampNanos int64
	v          float64
}

func unstableTimeSort(evs []event) {
	sort.Slice(evs, func(i, j int) bool { return evs[i].At.Before(evs[j].At) }) // want `unstable sort\.Slice with a timestamp comparison key`
}

func unstableStampSort(ss []sample) {
	sort.Slice(ss, func(i, j int) bool { return ss[i].StampNanos < ss[j].StampNanos }) // want `unstable sort\.Slice with a timestamp comparison key`
}

func unstableSlicesSort(evs []event) {
	slices.SortFunc(evs, func(a, b event) int { // want `unstable slices\.SortFunc with a timestamp comparison key`
		if a.At.Before(b.At) {
			return -1
		}
		return 1
	})
}

func unstableTimeCompare(evs []event) {
	slices.SortFunc(evs, func(a, b event) int { return a.At.Compare(b.At) }) // want `unstable slices\.SortFunc with a timestamp comparison key`
}

func unstableCmpCompare(ss []sample) {
	slices.SortFunc(ss, func(a, b sample) int { return cmp.Compare(a.StampNanos, b.StampNanos) }) // want `unstable slices\.SortFunc with a timestamp comparison key`
}

func unstableCmpCompareChain(ss []sample) {
	slices.SortFunc(ss, func(a, b sample) int { // want `unstable slices\.SortFunc with a timestamp comparison key`
		if c := cmp.Compare(a.v, b.v); c != 0 {
			return c
		}
		return cmp.Compare(a.StampNanos, b.StampNanos)
	})
}

func stableTimeSort(evs []event) {
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].At.Before(evs[j].At) })
}

func stableSlicesSort(evs []event, ss []sample) {
	slices.SortStableFunc(evs, func(a, b event) int { return a.At.Compare(b.At) })
	slices.SortStableFunc(ss, func(a, b sample) int { return cmp.Compare(a.StampNanos, b.StampNanos) })
}

type byAt []event

func (s byAt) Len() int           { return len(s) }
func (s byAt) Less(i, j int) bool { return s[i].At.Before(s[j].At) }
func (s byAt) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

func stableInterfaceSort(evs []event) {
	sort.Stable(byAt(evs))
}

func cmpCompareOnOtherKey(evs []event, ss []sample) {
	slices.SortFunc(evs, func(a, b event) int { return cmp.Compare(a.Name, b.Name) })
	slices.SortFunc(ss, func(a, b sample) int { return cmp.Compare(a.v, b.v) })
}

func totalOrderKey(evs []event) {
	sort.Slice(evs, func(i, j int) bool { return evs[i].Name < evs[j].Name })
}

func annotated(evs []event) {
	//roamvet:stablesort-ok fixture: suppression test, event times are unique by construction
	sort.Slice(evs, func(i, j int) bool { return evs[i].At.Before(evs[j].At) })
}

type key struct {
	nanos int64
	idx   int
}

func annotatedKeySort(keys []key) {
	//roamvet:stablesort-ok total order (ns, idx)
	slices.SortFunc(keys, func(a, b key) int {
		if c := cmp.Compare(a.nanos, b.nanos); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})
}
