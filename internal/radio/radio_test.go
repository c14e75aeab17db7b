package radio

import (
	"math"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"whereroam/internal/geo"
	"whereroam/internal/identity"
	"whereroam/internal/mccmnc"
	"whereroam/internal/rng"
)

func TestRATSetWithHas(t *testing.T) {
	var s RATSet
	if !s.Empty() {
		t.Fatal("zero set should be empty")
	}
	s = s.With(RAT2G).With(RAT4G)
	if !s.Has(RAT2G) || !s.Has(RAT4G) || s.Has(RAT3G) {
		t.Errorf("set contents wrong: %v", s)
	}
	if s.String() != "2G+4G" {
		t.Errorf("String = %q", s.String())
	}
	if RATSet(0).String() != "-" {
		t.Error("empty set should render as -")
	}
}

func TestRATSetOnly(t *testing.T) {
	if !RATSet(Has2G).Only(RAT2G) {
		t.Error("2G-only set should report Only(2G)")
	}
	if RATSet(Has2G | Has3G).Only(RAT2G) {
		t.Error("2G+3G set must not report Only(2G)")
	}
	if RATSet(0).Only(RAT2G) {
		t.Error("empty set must not report Only")
	}
}

func TestRATSetWithUnknownNoOp(t *testing.T) {
	s := RATSet(Has3G)
	if s.With(RATUnknown) != s {
		t.Error("adding unknown RAT must be a no-op")
	}
	if s.Has(RATUnknown) {
		t.Error("unknown RAT is never contained")
	}
}

func TestInterfaceRATAndDomain(t *testing.T) {
	cases := []struct {
		i Interface
		r RAT
		d Domain
	}{
		{IfA, RAT2G, DomainCS},
		{IfGb, RAT2G, DomainPS},
		{IfIuCS, RAT3G, DomainCS},
		{IfIuPS, RAT3G, DomainPS},
		{IfS1, RAT4G, DomainPS},
	}
	for _, c := range cases {
		if c.i.RAT() != c.r {
			t.Errorf("%v.RAT() = %v, want %v", c.i, c.i.RAT(), c.r)
		}
		if c.i.Domain() != c.d {
			t.Errorf("%v.Domain() = %v, want %v", c.i, c.i.Domain(), c.d)
		}
	}
}

func TestInterfaceFor(t *testing.T) {
	// Round trip: InterfaceFor(rat, domain) must return an interface
	// whose RAT and Domain match.
	for _, r := range []RAT{RAT2G, RAT3G, RAT4G} {
		for _, d := range []Domain{DomainCS, DomainPS} {
			i, ok := InterfaceFor(r, d)
			if r == RAT4G && d == DomainCS {
				if ok {
					t.Error("4G CS should not exist")
				}
				continue
			}
			if !ok {
				t.Fatalf("InterfaceFor(%v,%v) missing", r, d)
			}
			if i.RAT() != r || i.Domain() != d {
				t.Errorf("InterfaceFor(%v,%v) = %v (rat %v domain %v)", r, d, i, i.RAT(), i.Domain())
			}
		}
	}
}

func TestEventString(t *testing.T) {
	e := Event{
		Device:    identity.DeviceID(0xabc),
		Time:      time.Date(2019, 4, 5, 12, 0, 0, 0, time.UTC),
		SIM:       mccmnc.MustParse("20404"),
		TAC:       identity.TAC(35332811),
		Sector:    42,
		Interface: IfGb,
		Result:    ResultOK,
	}
	s := e.String()
	for _, want := range []string{"204-04", "35332811", "sector=42", "if=Gb", "OK"} {
		if !contains(s, want) {
			t.Errorf("Event.String() = %q missing %q", s, want)
		}
	}
	if e.RAT() != RAT2G {
		t.Errorf("event RAT = %v", e.RAT())
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func ukGrid(t *testing.T) *Grid {
	t.Helper()
	c, ok := mccmnc.CountryByISO("GB")
	if !ok {
		t.Fatal("GB missing from registry")
	}
	return NewGrid(c, 40, 40, DefaultSpacingDeg)
}

func TestGridDeterministic(t *testing.T) {
	g1, g2 := ukGrid(t), ukGrid(t)
	if len(g1.sectors) != len(g2.sectors) {
		t.Fatal("grid sizes differ")
	}
	for i := 0; i < len(g1.sectors); i++ {
		s1, _ := g1.Sector(SectorID(i))
		s2, _ := g2.Sector(SectorID(i))
		if s1 != s2 {
			t.Fatalf("sector %d differs between identical grids", i)
		}
	}
}

func TestGridNearestSelf(t *testing.T) {
	g := ukGrid(t)
	// Property: the nearest sector to a sector's own location is that
	// sector.
	for i := 0; i < len(g.sectors); i += 37 {
		s, _ := g.Sector(SectorID(i))
		if got := g.Nearest(s.At); got.ID != s.ID {
			t.Errorf("Nearest(sector %d location) = %d", s.ID, got.ID)
		}
	}
}

func TestGridNearestClamps(t *testing.T) {
	g := ukGrid(t)
	farNorth := geo.Point{Lat: 89, Lon: 0}
	s := g.Nearest(farNorth)
	if int(s.ID) < 0 || int(s.ID) >= len(g.sectors) {
		t.Fatalf("Nearest out of range: %d", s.ID)
	}
}

func TestGridRATMix(t *testing.T) {
	g := ukGrid(t)
	n2, n3, n4 := 0, 0, 0
	for i := 0; i < len(g.sectors); i++ {
		s, _ := g.Sector(SectorID(i))
		if !s.RAT.Has(RAT2G) {
			t.Fatalf("sector %d lacks 2G; every sector must carry it", i)
		}
		if s.RAT.Has(RAT2G) {
			n2++
		}
		if s.RAT.Has(RAT3G) {
			n3++
		}
		if s.RAT.Has(RAT4G) {
			n4++
		}
	}
	total := float64(len(g.sectors))
	if f := float64(n3) / total; f < 0.75 || f > 0.95 {
		t.Errorf("3G deployment share = %f, want ~0.85", f)
	}
	if f := float64(n4) / total; f < 0.60 || f > 0.80 {
		t.Errorf("4G deployment share = %f, want ~0.70", f)
	}
}

func TestNearestWithRAT(t *testing.T) {
	g := ukGrid(t)
	p := geo.Point{Lat: 51.5, Lon: -0.1}
	for _, r := range []RAT{RAT2G, RAT3G, RAT4G} {
		s, ok := g.NearestWithRAT(p, r)
		if !ok {
			t.Fatalf("no sector with %v", r)
		}
		if !s.RAT.Has(r) {
			t.Fatalf("NearestWithRAT(%v) returned sector without it", r)
		}
	}
}

func TestNearestWithRATIsNearest(t *testing.T) {
	g := ukGrid(t)
	// Property: no sector with the RAT is strictly closer than the
	// one returned.
	f := func(dLat, dLon uint16) bool {
		p := geo.Point{
			Lat: g.origin.Lat + float64(dLat%500)*0.002,
			Lon: g.origin.Lon + float64(dLon%500)*0.002,
		}
		got, ok := g.NearestWithRAT(p, RAT4G)
		if !ok {
			return false
		}
		gd := geo.DistanceKm(p, got.At)
		for i := 0; i < len(g.sectors); i++ {
			s, _ := g.Sector(SectorID(i))
			if s.RAT.Has(RAT4G) && geo.DistanceKm(p, s.At) < gd-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestNewGridPanicsOnBadDims(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewGrid(0,0) should panic")
		}
	}()
	c, _ := mccmnc.CountryByISO("GB")
	NewGrid(c, 0, 0, 0)
}

func BenchmarkGridNearest(b *testing.B) {
	c, _ := mccmnc.CountryByISO("GB")
	g := NewGrid(c, 100, 100, DefaultSpacingDeg)
	p := geo.Point{Lat: 51.6, Lon: -0.2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = g.Nearest(p)
	}
}

// nearestWithRATRingCols is NearestWithRAT as it was written before
// the deployed-set check and the stepped ring walk: every ring's
// column offsets materialized by ringCols, every ring searched even
// for a RAT no sector deploys. The rewrite must return what it did.
func nearestWithRATRingCols(g *Grid, p geo.Point, rat RAT) (Sector, bool) {
	base := g.Nearest(p)
	if base.RAT.Has(rat) {
		return base, true
	}
	br, bc := int(base.ID)/g.cols, int(base.ID)%g.cols
	maxRing := g.rows + g.cols
	for ring := 1; ring <= maxRing; ring++ {
		best := Sector{}
		bestD := math.Inf(1)
		for dr := -ring; dr <= ring; dr++ {
			for _, dc := range ringCols(dr, ring) {
				r, c := br+dr, bc+dc
				if r < 0 || r >= g.rows || c < 0 || c >= g.cols {
					continue
				}
				s := g.sectors[r*g.cols+c]
				if !s.RAT.Has(rat) {
					continue
				}
				if d := geo.DistanceKm(p, s.At); d < bestD {
					best, bestD = s, d
				}
			}
		}
		if !math.IsInf(bestD, 1) {
			return best, true
		}
	}
	return Sector{}, false
}

func ringCols(dr, ring int) []int {
	if dr == -ring || dr == ring {
		cols := make([]int, 0, 2*ring+1)
		for dc := -ring; dc <= ring; dc++ {
			cols = append(cols, dc)
		}
		return cols
	}
	return []int{-ring, ring}
}

// withNB returns a copy of g with NB-IoT added to every 97th sector,
// so the ring walk also runs over a sparse RAT and far rings.
func withNB(g *Grid) *Grid {
	nb := *g
	nb.sectors = slices.Clone(g.sectors)
	for i := 0; i < len(nb.sectors); i += 97 {
		nb.sectors[i].RAT |= HasNB
		nb.deployed |= HasNB
	}
	return &nb
}

func TestNearestWithRATMatchesRingColsWalk(t *testing.T) {
	uk := ukGrid(t)
	c, _ := mccmnc.CountryByISO("GB")
	grids := map[string]*Grid{
		"uk 40x40":       uk,
		"uk 40x40 + NB":  withNB(uk),
		"oblong 7x23":    NewGrid(c, 7, 23, DefaultSpacingDeg),
		"oblong 7x23+NB": withNB(NewGrid(c, 7, 23, DefaultSpacingDeg)),
	}
	rats := []RAT{RATUnknown, RAT2G, RAT3G, RAT4G, RATNB}
	for name, g := range grids {
		src := rng.New(31)
		south, west := g.origin.Lat, g.origin.Lon
		north := south + float64(g.rows-1)*g.spacing
		east := west + float64(g.cols-1)*g.spacing
		for i := 0; i < 2000; i++ {
			// A quarter of the points land outside the lattice, where
			// Nearest clamps to the border.
			p := geo.Point{
				Lat: south + (north-south)*(1.5*src.Float64()-0.25),
				Lon: west + (east-west)*(1.5*src.Float64()-0.25),
			}
			if i%10 == 0 { // exactly on a sector
				s, _ := g.Sector(SectorID(src.Intn(len(g.sectors))))
				p = s.At
			}
			for _, rat := range rats {
				got, gotOK := g.NearestWithRAT(p, rat)
				want, wantOK := nearestWithRATRingCols(g, p, rat)
				if got != want || gotOK != wantOK {
					t.Fatalf("%s: NearestWithRAT(%v, %v) = %+v, %v; ringCols walk %+v, %v",
						name, p, rat, got, gotOK, want, wantOK)
				}
			}
		}
	}
}

func TestNearestWithRATAllocatesNothing(t *testing.T) {
	g := ukGrid(t)
	// A point whose own sector lacks 4G, so the answer comes from a ring.
	var p geo.Point
	for i := range g.sectors {
		if !g.sectors[i].RAT.Has(RAT4G) {
			p = g.sectors[i].At
			break
		}
	}
	cases := map[string]RAT{"ring hit": RAT4G, "undeployed RAT": RATNB}
	for name, rat := range cases {
		allocs := testing.AllocsPerRun(100, func() {
			g.NearestWithRAT(p, rat)
		})
		if allocs != 0 {
			t.Errorf("%s: %.1f allocations per call, want 0", name, allocs)
		}
	}
}
