// Package rng provides a deterministic, splittable random number
// generator and the handful of distributions the simulators are built
// on (Zipf, lognormal, Pareto, Poisson, weighted choice).
//
// Every generator in this repository derives its randomness from a
// single user-supplied seed so that experiments are reproducible
// bit-for-bit. Streams are split by label (see [Source.Split]) so that
// adding a new consumer of randomness does not perturb existing ones.
package rng

import "math"

// Source is a SplitMix64 pseudo random number generator.
//
// SplitMix64 passes BigCrush, has a period of 2^64 and — crucially for
// this repository — supports O(1) stream splitting: deriving an
// independent child stream from a parent stream and a string label.
// The zero value is a valid source seeded with 0.
type Source struct {
	state uint64
}

// New returns a Source seeded with seed.
func New(seed uint64) *Source {
	return &Source{state: seed}
}

// Split derives an independent child stream identified by label.
// Splitting does not advance the parent stream: two calls with the same
// label return identical streams, calls with different labels return
// streams that are statistically independent of each other and of the
// parent.
//
// Split is small enough to inline, so a child that does not outlive
// its caller stays on the caller's stack and costs no allocation. A
// child that a struct keeps escapes to the heap unless the struct
// holds it as a Source value: prefer `src rng.Source` fields, filled
// with `*parent.Split(label)`, to `*rng.Source` ones.
func (s *Source) Split(label string) *Source {
	return &Source{state: s.childState(label)}
}

// SplitN derives an independent child stream identified by label and an
// index, for per-entity streams ("device", i). Like Split it inlines,
// so a short-lived child costs no allocation.
func (s *Source) SplitN(label string, n uint64) *Source {
	return &Source{state: s.childStateN(label, n)}
}

// childState is Split's derivation, kept out of line so Split stays
// within the inlining budget. The label is hashed with FNV-1a in
// place, which equals hash/fnv's New64a without its heap state.
//
//go:noinline
func (s *Source) childState(label string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= fnvPrime64
	}
	// Mix the label hash with the parent state through one SplitMix64
	// round so that (seed, label) pairs map to well-spread child seeds.
	return mix64(s.state ^ h)
}

// childStateN is SplitN's derivation: Split's child, mixed with n.
//
//go:noinline
func (s *Source) childStateN(label string, n uint64) uint64 {
	return mix64(s.childState(label) ^ (n * 0x9e3779b97f4a7c15))
}

// The FNV-1a 64-bit parameters, as hash/fnv defines them.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Hash01 maps a (seed, key) pair to a uniform value in [0, 1). It is
// the stateless counterpart of [Source.Bool] for per-record decisions:
// the result depends only on the pair — never on draw order — so
// concurrent producers reach identical sampling verdicts without
// sharing a sequential stream. Two SplitMix64 finalizer rounds give
// full avalanche even for structured keys (sequential IDs,
// nanosecond timestamps).
func Hash01(seed, key uint64) float64 {
	return float64(mix64(mix64(seed^key))>>11) / (1 << 53)
}

// Uint64 returns the next value of the stream.
func (s *Source) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with n <= 0")
	}
	// Lemire's nearly-divisionless bounded generation.
	v := s.Uint64()
	hi, lo := mul64(v, uint64(n))
	if lo < uint64(n) {
		thresh := uint64(-int64(n)) % uint64(n)
		for lo < thresh {
			v = s.Uint64()
			hi, lo = mul64(v, uint64(n))
		}
	}
	return int(hi)
}

func mul64(x, y uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0, x1 := x&mask32, x>>32
	y0, y1 := y&mask32, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += x0 * y1
	hi = x1*y1 + w2 + w1>>32
	lo = x * y
	return
}

// Int63n returns a uniform int64 in [0, n). It panics if n <= 0.
func (s *Source) Int63n(n int64) int64 {
	if n <= 0 {
		panic("rng: Int63n called with n <= 0")
	}
	for {
		v := int64(s.Uint64() >> 1)
		if r := v % n; v-r <= math.MaxInt64-n+1 {
			return r
		}
	}
}

// Float64 returns a uniform float64 in [0, 1).
func (s *Source) Float64() float64 {
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	return s.Float64() < p
}

// NormFloat64 returns a standard normal variate (Box–Muller transform;
// spare value cached would complicate Split semantics, so both values
// of the pair are derived fresh — simplicity over the last nanosecond).
func (s *Source) NormFloat64() float64 {
	// Marsaglia polar method avoids trig calls.
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q > 0 && q < 1 {
			return u * math.Sqrt(-2*math.Log(q)/q)
		}
	}
}

// LogNormal returns exp(N(mu, sigma)).
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(mu + sigma*s.NormFloat64())
}

// Pareto returns a Pareto(xm, alpha) variate: xm * U^(-1/alpha).
func (s *Source) Pareto(xm, alpha float64) float64 {
	u := s.Float64()
	for u == 0 {
		u = s.Float64()
	}
	return xm * math.Pow(u, -1/alpha)
}

// Exp returns an exponential variate with the given mean.
func (s *Source) Exp(mean float64) float64 {
	u := s.Float64()
	for u == 0 {
		u = s.Float64()
	}
	return -mean * math.Log(u)
}

// Poisson returns a Poisson(lambda) variate. For small lambda it uses
// Knuth's product method; for large lambda the normal approximation
// with continuity correction, which is ample for workload synthesis.
func (s *Source) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda < 30 {
		l := math.Exp(-lambda)
		k := 0
		p := 1.0
		for {
			p *= s.Float64()
			if p <= l {
				return k
			}
			k++
		}
	}
	v := lambda + math.Sqrt(lambda)*s.NormFloat64() + 0.5
	if v < 0 {
		return 0
	}
	return int(v)
}

// Zipf draws ranks in [1, n] with P(k) proportional to 1/k^alpha using
// inverse-CDF over a precomputed table. Build once with NewZipf, draw
// many times. The sampler owns no stream: every draw consumes the
// caller's.
type Zipf struct {
	cdf []float64
}

// NewZipf builds a Zipf sampler over ranks 1..n with exponent alpha > 0.
func NewZipf(n int, alpha float64) *Zipf {
	if n <= 0 {
		panic("rng: NewZipf with n <= 0")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for k := 1; k <= n; k++ {
		sum += 1 / math.Pow(float64(k), alpha)
		cdf[k-1] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{cdf: cdf}
}

// DrawFrom returns a rank in [1, n] consuming randomness from src,
// so callers can keep per-entity streams deterministic.
func (z *Zipf) DrawFrom(src *Source) int {
	u := src.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo + 1
}

// Weighted draws indices with probability proportional to the supplied
// weights. Build once, draw many times; like Zipf it owns no stream.
type Weighted struct {
	cdf []float64
}

// NewWeighted builds a sampler over len(weights) outcomes. Weights must
// be non-negative with a positive sum.
func NewWeighted(weights []float64) *Weighted {
	if len(weights) == 0 {
		panic("rng: NewWeighted with no weights")
	}
	cdf := make([]float64, len(weights))
	sum := 0.0
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) {
			panic("rng: NewWeighted with negative or NaN weight")
		}
		sum += w
		cdf[i] = sum
	}
	if sum <= 0 {
		panic("rng: NewWeighted with zero total weight")
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Weighted{cdf: cdf}
}

// DrawFrom returns an index in [0, len(weights)) consuming randomness
// from src, so callers can keep per-entity streams deterministic.
func (w *Weighted) DrawFrom(src *Source) int {
	u := src.Float64()
	lo, hi := 0, len(w.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if w.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Shuffle permutes the first n elements using swap, Fisher–Yates style.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		swap(i, j)
	}
}

// Perm returns a random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	s.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}
