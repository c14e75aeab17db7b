package rng

import (
	"hash/fnv"
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with the same seed diverged at step %d", i)
		}
	}
}

func TestDifferentSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams with different seeds produced %d identical values", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split("devices")
	c2 := parent.Split("sectors")
	c1b := parent.Split("devices")
	if c1.Uint64() != c1b.Uint64() {
		t.Fatal("same label must give identical child streams")
	}
	if c1.state == c2.state {
		t.Fatal("different labels must give different child streams")
	}
}

func TestSplitDoesNotAdvanceParent(t *testing.T) {
	a, b := New(9), New(9)
	a.Split("x")
	a.SplitN("y", 3)
	if a.Uint64() != b.Uint64() {
		t.Fatal("Split must not consume parent state")
	}
}

func TestSplitNDistinct(t *testing.T) {
	p := New(3)
	seen := map[uint64]bool{}
	for i := uint64(0); i < 1000; i++ {
		c := p.SplitN("dev", i)
		if seen[c.state] {
			t.Fatalf("SplitN collision at %d", i)
		}
		seen[c.state] = true
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(11)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := s.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniform(t *testing.T) {
	s := New(5)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[s.Intn(n)]++
	}
	want := float64(draws) / n
	for k, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d: got %d want ~%.0f", k, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		s := New(seed)
		for i := 0; i < 100; i++ {
			f := s.Float64()
			if f < 0 || f >= 1 {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	s := New(13)
	const n = 200000
	sum, sum2 := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.NormFloat64()
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	variance := sum2/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean = %f, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("normal variance = %f, want ~1", variance)
	}
}

func TestLogNormalMedian(t *testing.T) {
	s := New(17)
	const n = 100001
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = s.LogNormal(2, 0.5)
	}
	// The median of LogNormal(mu, sigma) is exp(mu).
	below := 0
	want := math.Exp(2)
	for _, v := range vals {
		if v < want {
			below++
		}
	}
	frac := float64(below) / n
	if math.Abs(frac-0.5) > 0.01 {
		t.Errorf("fraction below exp(mu) = %f, want ~0.5", frac)
	}
}

func TestParetoTail(t *testing.T) {
	s := New(19)
	const n = 100000
	min := math.Inf(1)
	over := 0
	for i := 0; i < n; i++ {
		v := s.Pareto(1, 2)
		if v < min {
			min = v
		}
		if v > 10 {
			over++
		}
	}
	if min < 1 {
		t.Errorf("Pareto(1,2) produced value below xm: %f", min)
	}
	// P(X > 10) = (1/10)^2 = 0.01.
	frac := float64(over) / n
	if math.Abs(frac-0.01) > 0.005 {
		t.Errorf("Pareto tail P(X>10) = %f, want ~0.01", frac)
	}
}

func TestPoissonMean(t *testing.T) {
	s := New(23)
	for _, lambda := range []float64{0.5, 3, 20, 100} {
		const n = 50000
		sum := 0
		for i := 0; i < n; i++ {
			sum += s.Poisson(lambda)
		}
		mean := float64(sum) / n
		if math.Abs(mean-lambda) > 0.05*lambda+0.05 {
			t.Errorf("Poisson(%f) mean = %f", lambda, mean)
		}
	}
}

func TestPoissonZeroForNonPositive(t *testing.T) {
	s := New(1)
	if s.Poisson(0) != 0 || s.Poisson(-5) != 0 {
		t.Fatal("Poisson of non-positive lambda must be 0")
	}
}

func TestZipfSkew(t *testing.T) {
	s := New(29)
	z := NewZipf(100, 1.0)
	const n = 100000
	counts := make([]int, 101)
	for i := 0; i < n; i++ {
		r := z.DrawFrom(s)
		if r < 1 || r > 100 {
			t.Fatalf("Zipf rank %d out of [1,100]", r)
		}
		counts[r]++
	}
	if counts[1] < counts[2] || counts[2] < counts[10] {
		t.Errorf("Zipf not skewed: c1=%d c2=%d c10=%d", counts[1], counts[2], counts[10])
	}
	// Rank 1 should hold about 1/H(100) ~= 19% of the mass.
	frac := float64(counts[1]) / n
	if frac < 0.15 || frac > 0.25 {
		t.Errorf("Zipf rank-1 share = %f, want ~0.19", frac)
	}
}

func TestWeightedShares(t *testing.T) {
	s := New(31)
	w := NewWeighted([]float64{1, 2, 7})
	const n = 100000
	counts := make([]int, 3)
	for i := 0; i < n; i++ {
		counts[w.DrawFrom(s)]++
	}
	for i, want := range []float64{0.1, 0.2, 0.7} {
		frac := float64(counts[i]) / n
		if math.Abs(frac-want) > 0.01 {
			t.Errorf("weight %d share = %f want %f", i, frac, want)
		}
	}
}

func TestWeightedPanics(t *testing.T) {
	for name, weights := range map[string][]float64{
		"empty":    {},
		"zero":     {0, 0},
		"negative": {1, -1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewWeighted(%s) should panic", name)
				}
			}()
			NewWeighted(weights)
		}()
	}
}

func TestPermIsPermutation(t *testing.T) {
	if err := quick.Check(func(seed uint64) bool {
		s := New(seed)
		p := s.Perm(50)
		seen := make([]bool, 50)
		for _, v := range p {
			if v < 0 || v >= 50 || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestExpMean(t *testing.T) {
	s := New(37)
	const n = 100000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Exp(4)
	}
	if mean := sum / n; math.Abs(mean-4) > 0.1 {
		t.Errorf("Exp(4) mean = %f", mean)
	}
}

// fnvChildState is the derivation Split and SplitN used through
// hash/fnv, kept as the reference for the in-place FNV-1a hash.
func fnvChildState(parent uint64, label string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(label))
	return mix64(parent ^ h.Sum64())
}

// FuzzSplitLabel checks that Split and SplitN derive the same child
// state as the hash/fnv reference for arbitrary seeds, labels and
// indices, and that neither advances the parent.
func FuzzSplitLabel(f *testing.F) {
	f.Add(uint64(0), "", uint64(0))
	f.Add(uint64(1), "device", uint64(7))
	f.Add(uint64(42), "meters", uint64(1<<63))
	f.Add(uint64(1<<64-1), "\xff\x00é", uint64(1<<64-1))
	f.Fuzz(func(t *testing.T, seed uint64, label string, n uint64) {
		p := New(seed)
		want := fnvChildState(seed, label)
		if got := p.Split(label).state; got != want {
			t.Fatalf("Split(%q) state %#x, want %#x", label, got, want)
		}
		wantN := mix64(want ^ (n * 0x9e3779b97f4a7c15))
		if got := p.SplitN(label, n).state; got != wantN {
			t.Fatalf("SplitN(%q, %d) state %#x, want %#x", label, n, got, wantN)
		}
		if p.state != seed {
			t.Fatalf("splitting moved the parent from %#x to %#x", seed, p.state)
		}
	})
}

// TestSplitChainAllocatesNothing pins that Split and SplitN inline: a
// child that does not outlive its caller stays on the stack.
func TestSplitChainAllocatesNothing(t *testing.T) {
	src := New(5)
	var sink uint64
	allocs := testing.AllocsPerRun(100, func() {
		sink += src.Split("a").SplitN("b", 7).Uint64()
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocations per run, want 0", allocs)
	}
	_ = sink
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkZipfDraw(b *testing.B) {
	s := New(1)
	z := NewZipf(10000, 1.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = z.DrawFrom(s)
	}
}
