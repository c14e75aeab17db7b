package probe

import (
	"math"
	"testing"
)

// collector is the tests' in-memory sink.
type collector[T any] []T

func (c *collector[T]) Add(rec T)    { *c = append(*c, rec) }
func (c *collector[T]) Records() []T { return *c }
func (c *collector[T]) Len() int     { return len(*c) }

func TestTapForwardsAll(t *testing.T) {
	var c collector[int]
	tap := NewTap("all", 1, c.Add)
	for i := 0; i < 100; i++ {
		tap.Offer(i)
	}
	if c.Len() != 100 {
		t.Fatalf("captured %d, want 100", c.Len())
	}
}

func TestTapFilter(t *testing.T) {
	var c collector[int]
	tap := NewTap("even", 1, c.Add)
	tap.Filter = func(v int) bool { return v%2 == 0 }
	for i := 0; i < 100; i++ {
		tap.Offer(i)
	}
	if c.Len() != 50 {
		t.Fatalf("captured %d, want 50", c.Len())
	}
	for _, v := range c.Records() {
		if v%2 != 0 {
			t.Fatalf("odd value %d passed the filter", v)
		}
	}
}

func TestTapSampling(t *testing.T) {
	var c collector[int]
	tap := NewTap("sampled", 7, c.Add)
	tap.SampleRate = 0.25
	const n = 40000
	for i := 0; i < n; i++ {
		tap.Offer(i)
	}
	got := float64(c.Len()) / n
	if math.Abs(got-0.25) > 0.02 {
		t.Errorf("sample rate = %.3f, want ~0.25", got)
	}
}

func TestTapSamplingDeterministic(t *testing.T) {
	run := func() []int {
		var c collector[int]
		tap := NewTap("s", 42, c.Add)
		tap.SampleRate = 0.5
		for i := 0; i < 1000; i++ {
			tap.Offer(i)
		}
		return c.Records()
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("same seed, different capture sizes")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed, different captures")
		}
	}
}

// Hash-based sampling decides per record identity: the kept set must
// not depend on offer order, on how records are split across several
// taps sharing (name, seed), or on interleaving — the contract the
// parallel sampled-capture paths rely on.
func TestTapHashSamplingOrderInvariant(t *testing.T) {
	const n = 40000
	key := func(v int) uint64 { return uint64(v) }
	sample := func(order func(i int) int, taps int) map[int]bool {
		ts := make([]*Tap[int], taps)
		cols := make([]collector[int], taps)
		for i := range ts {
			ts[i] = NewTap("hash", 42, cols[i].Add)
			ts[i].SampleRate = 0.25
			ts[i].SampleKey = key
		}
		for i := 0; i < n; i++ {
			v := order(i)
			ts[v%taps].Offer(v)
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
	kept := func(seed uint64) int {
		var c collector[int]
		tap := NewTap("hash", seed, c.Add)
		tap.SampleRate = 0.5
		tap.SampleKey = func(v int) uint64 { return uint64(v) }
		overlap := 0
		for i := 0; i < 1000; i++ {
			tap.Offer(i)
		}
		for _, v := range c.Records() {
			if v < 500 {
				overlap++
			}
		}
		return c.Len() + overlap*100000 // crude fingerprint
	}
	if kept(1) == kept(2) {
		t.Error("seeds 1 and 2 produced identical kept sets")
	}
}

func TestTapZeroValueKeepsAll(t *testing.T) {
	var c collector[string]
	tap := &Tap[string]{Sink: c.Add}
	tap.Offer("x")
	tap.Offer("y")
	if c.Len() != 2 {
		t.Fatalf("zero-config tap dropped records: %d", c.Len())
	}
}

func TestStream(t *testing.T) {
	s := NewStream[int](8)
	go func() {
		for i := 0; i < 100; i++ {
			s.Send(i)
		}
		s.Close()
	}()
	sum, count := 0, 0
	for v := range s.C {
		sum += v
		count++
	}
	if count != 100 || sum != 4950 {
		t.Fatalf("stream delivered %d records, sum %d", count, sum)
	}
}

func TestStreamAsTapSink(t *testing.T) {
	s := NewStream[int](4)
	tap := NewTap("stream", 1, s.Send)
	done := make(chan int)
	go func() {
		n := 0
		for range s.C {
			n++
		}
		done <- n
	}()
	for i := 0; i < 50; i++ {
		tap.Offer(i)
	}
	s.Close()
	if n := <-done; n != 50 {
		t.Fatalf("stream sink got %d records", n)
	}
}

func TestFanout(t *testing.T) {
	var a, b collector[int]
	sink := Fanout(a.Add, b.Add)
	tap := NewTap("fan", 1, sink)
	for i := 0; i < 10; i++ {
		tap.Offer(i)
	}
	if a.Len() != 10 || b.Len() != 10 {
		t.Fatalf("fanout delivered %d/%d, want 10/10", a.Len(), b.Len())
	}
}

func BenchmarkTapOffer(b *testing.B) {
	tap := NewTap("bench", 1, func(int) {})
	tap.Filter = func(v int) bool { return v%2 == 0 }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tap.Offer(i)
	}
}
