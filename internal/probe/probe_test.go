package probe

import (
	"math"
	"reflect"
	"testing"
)

// collector is the tests' in-memory sink.
type collector[T any] []T

func (c *collector[T]) Add(rec T)    { *c = append(*c, rec) }
func (c *collector[T]) Records() []T { return *c }
func (c *collector[T]) Len() int     { return len(*c) }

func intKey(v int) uint64 { return uint64(v) }

// A complete capture forwards every record, whatever the rate says
// outside (0, 1).
func TestTapForwardsAll(t *testing.T) {
	for _, rate := range []float64{0, 1, -1, 2, math.NaN()} {
		var c collector[int]
		sink := Sample("all", 1, rate, intKey, c.Add)
		for i := 0; i < 100; i++ {
			sink(i)
		}
		if c.Len() != 100 {
			t.Fatalf("rate %v: captured %d, want 100", rate, c.Len())
		}
	}
}

// Hash-based sampling decides per record identity: the kept set must
// not depend on offer order, on how records are split across several
// samplers sharing (name, seed), or on interleaving — the contract
// the parallel sampled-capture paths rely on.
func TestTapHashSamplingOrderInvariant(t *testing.T) {
	const n = 40000
	sample := func(order func(i int) int, shards int) map[int]bool {
		sinks := make([]func(int), shards)
		cols := make([]collector[int], shards)
		for i := range sinks {
			sinks[i] = Sample("hash", 42, 0.25, intKey, cols[i].Add)
		}
		for i := 0; i < n; i++ {
			v := order(i)
			sinks[v%shards](v)
		}
		kept := map[int]bool{}
		for i := range cols {
			for _, v := range cols[i].Records() {
				kept[v] = true
			}
		}
		return kept
	}

	forward := sample(func(i int) int { return i }, 1)
	reverse := sample(func(i int) int { return n - 1 - i }, 1)
	sharded := sample(func(i int) int { return i }, 4)

	rate := float64(len(forward)) / n
	if math.Abs(rate-0.25) > 0.02 {
		t.Errorf("hash sample rate = %.3f, want ~0.25", rate)
	}
	if len(forward) != len(reverse) || len(forward) != len(sharded) {
		t.Fatalf("kept sizes diverge: forward %d, reverse %d, sharded %d",
			len(forward), len(reverse), len(sharded))
	}
	for v := range forward {
		if !reverse[v] || !sharded[v] {
			t.Fatalf("record %d kept forward but dropped in reverse/sharded order", v)
		}
	}
}

// Different seeds must keep different sets, or the hash would be a
// constant partition of the key space.
func TestTapHashSamplingSeedSensitivity(t *testing.T) {
	kept := func(seed uint64) []int {
		var c collector[int]
		sink := Sample("hash", seed, 0.5, intKey, c.Add)
		for i := 0; i < 1000; i++ {
			sink(i)
		}
		return c.Records()
	}
	if reflect.DeepEqual(kept(1), kept(2)) {
		t.Error("seeds 1 and 2 produced identical kept sets")
	}
}

// Rates 0 and 1 are both a complete capture: Sample hands back the
// sink itself, with no per-record hop in front of it.
func TestTapZeroValueKeepsAll(t *testing.T) {
	var c collector[string]
	for _, rate := range []float64{0, 1} {
		sink := Sample("all", 1, rate, func(string) uint64 { return 0 }, c.Add)
		if reflect.ValueOf(sink).Pointer() != reflect.ValueOf(c.Add).Pointer() {
			t.Fatalf("rate %v: Sample wrapped the sink", rate)
		}
	}
}

// Fanout behind a sampler: every leg sees the same thinned capture.
func TestFanout(t *testing.T) {
	var a, b collector[int]
	sink := Sample("fan", 1, 0.5, intKey, Fanout(a.Add, b.Add))
	for i := 0; i < 1000; i++ {
		sink(i)
	}
	if a.Len() == 0 || a.Len() == 1000 {
		t.Fatalf("sampled fanout kept %d of 1000", a.Len())
	}
	if !reflect.DeepEqual(a.Records(), b.Records()) {
		t.Fatal("fanout sinks saw different records")
	}
}
