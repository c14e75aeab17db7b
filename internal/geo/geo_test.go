package geo

import (
	"math"
	"testing"
	"testing/quick"

	"whereroam/internal/rng"
)

func TestDistanceKnownPairs(t *testing.T) {
	cases := []struct {
		a, b Point
		want float64 // km
		tol  float64
	}{
		{Point{51.5, -0.1}, Point{48.9, 2.3}, 334, 15},       // London–Paris
		{Point{40.4, -3.7}, Point{-33.9, 151.2}, 17680, 200}, // Madrid–Sydney
		{Point{0, 0}, Point{0, 1}, 111.2, 1},                 // 1 degree on equator
		{Point{52.2, 5.3}, Point{52.2, 5.3}, 0, 0.001},       // identical
	}
	for _, c := range cases {
		got := DistanceKm(c.a, c.b)
		if math.Abs(got-c.want) > c.tol {
			t.Errorf("DistanceKm(%v,%v) = %.1f, want %.1f±%.1f", c.a, c.b, got, c.want, c.tol)
		}
	}
}

func TestDistanceSymmetry(t *testing.T) {
	f := func(lat1, lon1, lat2, lon2 float64) bool {
		a := Point{clampLat(lat1), clampLon(lon1)}
		b := Point{clampLat(lat2), clampLon(lon2)}
		d1, d2 := DistanceKm(a, b), DistanceKm(b, a)
		return math.Abs(d1-d2) < 1e-9 && d1 >= 0 && d1 <= math.Pi*EarthRadiusKm+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func clampLat(v float64) float64 { return math.Mod(math.Abs(v), 90) * sign(v) }
func clampLon(v float64) float64 { return math.Mod(math.Abs(v), 180) * sign(v) }
func sign(v float64) float64 {
	if v < 0 || math.Signbit(v) {
		return -1
	}
	return 1
}

func TestCentroidSinglePoint(t *testing.T) {
	p := Point{45, 9}
	c, ok := Centroid([]Visit{{At: p, Weight: 3}})
	if !ok || c != p {
		t.Errorf("Centroid of single visit = %v, %v", c, ok)
	}
}

func TestCentroidWeighting(t *testing.T) {
	// 3:1 weights pull the centroid three quarters of the way over.
	visits := []Visit{
		{At: Point{0, 0}, Weight: 1},
		{At: Point{0, 4}, Weight: 3},
	}
	c, ok := Centroid(visits)
	if !ok {
		t.Fatal("no centroid")
	}
	if math.Abs(c.Lon-3) > 1e-9 || math.Abs(c.Lat) > 1e-9 {
		t.Errorf("Centroid = %v, want (0,3)", c)
	}
}

func TestCentroidNoWeight(t *testing.T) {
	if _, ok := Centroid(nil); ok {
		t.Error("empty visits should have no centroid")
	}
	if _, ok := Centroid([]Visit{{At: Point{1, 1}, Weight: 0}}); ok {
		t.Error("zero-weight visits should have no centroid")
	}
}

func TestCentroidAntimeridian(t *testing.T) {
	// Two points either side of the date line must average near ±180,
	// not near 0.
	visits := []Visit{
		{At: Point{0, 179}, Weight: 1},
		{At: Point{0, -179}, Weight: 1},
	}
	c, ok := Centroid(visits)
	if !ok {
		t.Fatal("no centroid")
	}
	if math.Abs(math.Abs(c.Lon)-180) > 1e-6 {
		t.Errorf("antimeridian centroid lon = %v, want ±180", c.Lon)
	}
}

func TestGyrationInvariants(t *testing.T) {
	// Single point: zero.
	if g := Gyration([]Visit{{At: Point{50, 10}, Weight: 5}}); g != 0 {
		t.Errorf("single-point gyration = %f", g)
	}
	// Repeated identical points: zero.
	same := []Visit{
		{At: Point{50, 10}, Weight: 1},
		{At: Point{50, 10}, Weight: 7},
	}
	if g := Gyration(same); g > 1e-9 {
		t.Errorf("co-located gyration = %f", g)
	}
	// Empty: zero.
	if g := Gyration(nil); g != 0 {
		t.Errorf("empty gyration = %f", g)
	}
}

func TestGyrationTranslationInvariance(t *testing.T) {
	base := []Visit{
		{At: Point{10, 20}, Weight: 2},
		{At: Point{10.01, 20.01}, Weight: 1},
		{At: Point{9.99, 20.02}, Weight: 3},
	}
	shifted := make([]Visit, len(base))
	for i, v := range base {
		shifted[i] = Visit{At: Point{v.At.Lat + 5, v.At.Lon + 5}, Weight: v.Weight}
	}
	g1, g2 := Gyration(base), Gyration(shifted)
	// Spherical geometry means translation is not exactly isometric,
	// but at km scale the change must be tiny.
	if math.Abs(g1-g2)/g1 > 0.02 {
		t.Errorf("gyration not translation-stable: %f vs %f", g1, g2)
	}
}

func TestGyrationScale(t *testing.T) {
	// Two points d apart with equal weight: gyration = d/2.
	a, b := Point{0, 0}, Point{0, 0.02}
	d := DistanceKm(a, b)
	g := Gyration([]Visit{{At: a, Weight: 1}, {At: b, Weight: 1}})
	if math.Abs(g-d/2) > 0.01 {
		t.Errorf("two-point gyration = %f, want %f", g, d/2)
	}
}

func TestGyrationWeightingSuppressesReselection(t *testing.T) {
	// The ablation scenario from DESIGN.md: a stationary smart meter
	// spends 99.9% of its time on its home sector and briefly
	// reselects to a sector 2 km away. Time weighting should keep the
	// gyration far below the unweighted figure.
	home := Point{51.5, -0.1}
	far := Point{51.5, -0.071} // ~2 km east
	visits := []Visit{
		{At: home, Weight: 86400 * 0.999},
		{At: far, Weight: 86400 * 0.001},
	}
	w := Gyration(visits)
	u := GyrationUnweighted(visits)
	if w >= u {
		t.Fatalf("weighted %f should be below unweighted %f", w, u)
	}
	if w > 0.2 {
		t.Errorf("weighted gyration = %f km, want < 0.2 (stationary)", w)
	}
	if u < 0.5 {
		t.Errorf("unweighted gyration = %f km, want ~1 (inflated)", u)
	}
}

func TestGyrationMonotoneInSpread(t *testing.T) {
	f := func(spread uint8) bool {
		s := float64(spread%100) / 1000 // up to 0.1 degrees
		v1 := []Visit{
			{At: Point{40, 0}, Weight: 1},
			{At: Point{40, s}, Weight: 1},
		}
		v2 := []Visit{
			{At: Point{40, 0}, Weight: 1},
			{At: Point{40, 2 * s}, Weight: 1},
		}
		return Gyration(v2) >= Gyration(v1)-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// haversineRef is DistanceKm as written before its body moved into
// distanceTo; the two must agree bit for bit.
func haversineRef(a, b Point) float64 {
	const degToRad = math.Pi / 180
	la1, lo1 := a.Lat*degToRad, a.Lon*degToRad
	la2, lo2 := b.Lat*degToRad, b.Lon*degToRad
	dLat := la2 - la1
	dLon := lo2 - lo1
	s1 := math.Sin(dLat / 2)
	s2 := math.Sin(dLon / 2)
	h := s1*s1 + math.Cos(la1)*math.Cos(la2)*s2*s2
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadiusKm * math.Asin(math.Sqrt(h))
}

// gyrationRef is Gyration as a plain loop: one DistanceKm per
// positive-weight visit, nothing hoisted or reused.
func gyrationRef(visits []Visit) float64 {
	c, ok := Centroid(visits)
	if !ok {
		return 0
	}
	var sum, sumW float64
	for _, v := range visits {
		if v.Weight <= 0 {
			continue
		}
		d := DistanceKm(v.At, c)
		sum += v.Weight * d * d
		sumW += v.Weight
	}
	if sumW == 0 {
		return 0
	}
	return math.Sqrt(sum / sumW)
}

func TestDistanceKmMatchesHaversineRef(t *testing.T) {
	src := rng.New(41)
	for i := 0; i < 20000; i++ {
		a := Point{180*src.Float64() - 90, 360*src.Float64() - 180}
		b := Point{180*src.Float64() - 90, 360*src.Float64() - 180}
		if i%4 == 0 { // nearby pairs, the sector-search case
			b = Point{a.Lat + 0.05*src.NormFloat64(), a.Lon + 0.05*src.NormFloat64()}
		}
		if got, want := DistanceKm(a, b), haversineRef(a, b); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("DistanceKm(%v, %v) = %v, reference %v", a, b, got, want)
		}
	}
}

// seededVisits draws a visit set the way a device-day looks to the
// builder: runs of visits at one sector (a stationary device repeats
// its sector), consecutive sectors on one lattice row or column,
// zero-weight visits inside runs, and — for antimeridian sets — a
// cluster straddling ±180°.
func seededVisits(src *rng.Source, antimeridian bool) []Visit {
	centre := Point{140*src.Float64() - 70, 360*src.Float64() - 180}
	if antimeridian {
		centre.Lon = 180 - 0.02*src.Float64()
	}
	var visits []Visit
	for runs := 1 + src.Intn(8); runs > 0; runs-- {
		at := Point{centre.Lat + 0.03*src.NormFloat64(), centre.Lon + 0.03*src.NormFloat64()}
		if at.Lon > 180 {
			at.Lon -= 360
		}
		if n := len(visits); n > 0 {
			switch src.Intn(3) {
			case 0: // same row
				at.Lat = visits[n-1].At.Lat
			case 1: // same column
				at.Lon = visits[n-1].At.Lon
			}
		}
		for n := 1 + src.Intn(6); n > 0; n-- {
			w := float64(1 + src.Intn(3600))
			if src.Bool(0.2) {
				w = 0
			}
			visits = append(visits, Visit{At: at, Weight: w})
		}
	}
	return visits
}

func TestGyrationMatchesDistanceKmLoop(t *testing.T) {
	src := rng.New(42)
	for i := 0; i < 5000; i++ {
		visits := seededVisits(src, i%3 == 0)
		if got, want := Gyration(visits), gyrationRef(visits); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("set %d: Gyration = %v, DistanceKm loop %v (%v)", i, got, want, visits)
		}
	}
}

func BenchmarkGyration(b *testing.B) {
	visits := make([]Visit, 100)
	for i := range visits {
		visits[i] = Visit{At: Point{50 + float64(i)*0.001, float64(i) * 0.001}, Weight: float64(i%7 + 1)}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Gyration(visits)
	}
}
