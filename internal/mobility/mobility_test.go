package mobility

import (
	"testing"
	"time"

	"whereroam/internal/geo"
	"whereroam/internal/rng"
)

var centre = geo.Point{Lat: 51.5, Lon: -0.1}

func sampleDay(m Model, day time.Time, stepMin int) []geo.Visit {
	var visits []geo.Visit
	for min := 0; min < 24*60; min += stepMin {
		visits = append(visits, geo.Visit{
			At:     m.Position(day.Add(time.Duration(min) * time.Minute)),
			Weight: float64(stepMin),
		})
	}
	return visits
}

func TestModelsDeterministic(t *testing.T) {
	build := func() []Model {
		src := rng.New(42)
		s := NewStationary(src.Split("s"), centre, 20)
		c := NewCommuter(src.Split("c"), centre, 20)
		v := NewVehicular(src.Split("v"), centre, 80)
		w := NewWaypoint(src.Split("w"), centre, 10)
		return []Model{&s, &c, &v, &w}
	}
	a, b := build(), build()
	ts := time.Date(2019, 4, 8, 13, 37, 0, 0, time.UTC)
	for i := range a {
		for h := 0; h < 48; h++ {
			q := ts.Add(time.Duration(h) * time.Hour)
			if a[i].Position(q) != b[i].Position(q) {
				t.Fatalf("model %d not deterministic at %v", i, q)
			}
		}
	}
}

func TestPositionIsPure(t *testing.T) {
	src := rng.New(7)
	m := NewVehicular(src, centre, 50)
	q := time.Date(2019, 4, 9, 10, 0, 0, 0, time.UTC)
	p1 := m.Position(q)
	// Querying other instants must not perturb the original answer.
	for h := 0; h < 100; h++ {
		m.Position(q.Add(time.Duration(h) * time.Minute))
	}
	if m.Position(q) != p1 {
		t.Fatal("Position must be a pure function of time")
	}
}

func TestStationaryStaysPut(t *testing.T) {
	src := rng.New(1)
	day := time.Date(2019, 4, 8, 0, 0, 0, 0, time.UTC)
	for dev := 0; dev < 20; dev++ {
		m := NewStationary(src.SplitN("dev", uint64(dev)), centre, 30)
		g := geo.Gyration(sampleDay(&m, day, 10))
		// §5.3: stationary devices should sit well under 1 km of
		// gyration even with reselection jitter.
		if g > 1.0 {
			t.Errorf("stationary device %d gyration = %.2f km", dev, g)
		}
	}
}

func TestStationaryJitterHappens(t *testing.T) {
	src := rng.New(2)
	m := NewStationary(src, centre, 10)
	m.ReselectProb = 0.5 // crank it up to make the test cheap
	moved := false
	day := time.Date(2019, 4, 8, 0, 0, 0, 0, time.UTC)
	for h := 0; h < 48; h++ {
		if m.Position(day.Add(time.Duration(h)*time.Hour)) != m.Home {
			moved = true
			break
		}
	}
	if !moved {
		t.Error("reselection jitter never produced an off-home position")
	}
}

func TestCommuterSchedule(t *testing.T) {
	src := rng.New(3)
	m := NewCommuter(src, centre, 20)
	monday := time.Date(2019, 4, 8, 0, 0, 0, 0, time.UTC)
	if m.Position(monday.Add(3*time.Hour)) != m.Home {
		t.Error("3am should be at home")
	}
	if m.Position(monday.Add(12*time.Hour)) != m.Work {
		t.Error("noon should be at work")
	}
	if m.Position(monday.Add(22*time.Hour)) != m.Home {
		t.Error("10pm should be at home")
	}
	mid := m.Position(monday.Add(8*time.Hour + 30*time.Minute))
	if mid == m.Home || mid == m.Work {
		t.Error("8:30am should be in transit")
	}
}

func TestCommuterGyrationExceedsStationary(t *testing.T) {
	src := rng.New(4)
	day := time.Date(2019, 4, 9, 0, 0, 0, 0, time.UTC) // Tuesday
	comm := NewCommuter(src.Split("c"), centre, 20)
	stat := NewStationary(src.Split("s"), centre, 20)
	gc := geo.Gyration(sampleDay(&comm, day, 10))
	gs := geo.Gyration(sampleDay(&stat, day, 10))
	if gc <= gs {
		t.Errorf("commuter gyration %.2f should exceed stationary %.2f", gc, gs)
	}
	if gc < 0.5 {
		t.Errorf("commuter gyration %.2f km implausibly small", gc)
	}
}

func TestVehicularCoversDistance(t *testing.T) {
	src := rng.New(5)
	m := NewVehicular(src, centre, 80)
	day := time.Date(2019, 4, 10, 0, 0, 0, 0, time.UTC)
	g := geo.Gyration(sampleDay(&m, day, 10))
	// Fig. 12: connected cars show smartphone-like or larger
	// mobility; a day of driving should cover tens of km.
	if g < 10 {
		t.Errorf("vehicular gyration = %.2f km, want > 10", g)
	}
	// And it must stay inside its operating box (plus slack).
	for h := 0; h < 24*7; h++ {
		p := m.Position(day.Add(time.Duration(h) * time.Hour))
		if d := geo.DistanceKm(p, m.Base); d > 80*1.6 {
			t.Fatalf("vehicle escaped its box: %.1f km from base", d)
		}
	}
}

func TestWaypointBounded(t *testing.T) {
	src := rng.New(6)
	m := NewWaypoint(src, centre, 10)
	day := time.Date(2019, 4, 8, 0, 0, 0, 0, time.UTC)
	for h := 0; h < 24*14; h++ {
		p := m.Position(day.Add(time.Duration(h) * time.Hour))
		if d := geo.DistanceKm(p, centre); d > 11 {
			t.Fatalf("waypoint wanderer left its radius: %.1f km", d)
		}
	}
}

func TestWaypointMoves(t *testing.T) {
	src := rng.New(8)
	m := NewWaypoint(src, centre, 10)
	day := time.Date(2019, 4, 8, 0, 0, 0, 0, time.UTC)
	distinct := map[geo.Point]bool{}
	for h := 0; h < 24; h++ {
		distinct[m.Position(day.Add(time.Duration(h)*time.Hour))] = true
	}
	if len(distinct) < 12 {
		t.Errorf("wanderer visited only %d distinct positions in a day", len(distinct))
	}
}

func TestMobilityOrdering(t *testing.T) {
	// The core paper ordering (Fig. 8 and 12): stationary meters ≪
	// commuting smartphones ≲ vehicles.
	src := rng.New(9)
	day := time.Date(2019, 4, 9, 0, 0, 0, 0, time.UTC)
	avg := func(mk func(i uint64) Model) float64 {
		total := 0.0
		const n = 10
		for i := uint64(0); i < n; i++ {
			total += geo.Gyration(sampleDay(mk(i), day, 15))
		}
		return total / n
	}
	meters := avg(func(i uint64) Model { m := NewStationary(src.SplitN("m", i), centre, 30); return &m })
	phones := avg(func(i uint64) Model { m := NewCommuter(src.SplitN("p", i), centre, 30); return &m })
	cars := avg(func(i uint64) Model { m := NewVehicular(src.SplitN("v", i), centre, 80); return &m })
	if !(meters < phones && phones < cars) {
		t.Errorf("gyration ordering broken: meters=%.2f phones=%.2f cars=%.2f", meters, phones, cars)
	}
}

func BenchmarkVehicularPosition(b *testing.B) {
	m := NewVehicular(rng.New(1), centre, 80)
	ts := time.Date(2019, 4, 10, 0, 0, 0, 0, time.UTC)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.Position(ts.Add(time.Duration(i) * time.Minute))
	}
}
