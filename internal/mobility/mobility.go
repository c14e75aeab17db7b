// Package mobility provides deterministic device movement models over
// geographic space. Each model is a pure function of time once
// constructed: Position(t) can be sampled at any granularity without
// maintaining state, which keeps the simulators O(events) and allows
// the same device to be queried independently by different probes.
//
// The constructors return values, so a generator can keep its models
// in a slab it owns; a model's pointer is what implements Model.
//
// The models map to the populations the paper contrasts:
//
//   - Stationary: smart meters and POS terminals — fixed location with
//     occasional cell-reselection jitter (§5.3 notes some apparent
//     movement is "likely due to cell reselection, rather than actual
//     movements").
//   - Commuter: smartphones and wearables — home/work pendulum with a
//     diurnal schedule.
//   - Vehicular: connected cars — sustained movement over long
//     distances (Fig. 12 shows car mobility ≈ smartphone mobility).
//   - Waypoint: generic random-waypoint wandering for feature phones
//     and tail devices.
package mobility

import (
	"math"
	"time"

	"whereroam/internal/geo"
	"whereroam/internal/rng"
)

// Model yields a device position at any instant.
type Model interface {
	// Position returns the device location at t.
	Position(t time.Time) geo.Point
}

// kmPerDegLat is the approximate latitude degree length.
const kmPerDegLat = 111.2

// offsetKm displaces p by (dxKm, dyKm) east/north.
func offsetKm(p geo.Point, dxKm, dyKm float64) geo.Point {
	lat := p.Lat + dyKm/kmPerDegLat
	lonScale := kmPerDegLat * math.Cos(p.Lat*math.Pi/180)
	if lonScale < 1 {
		lonScale = 1
	}
	return geo.Point{Lat: lat, Lon: p.Lon + dxKm/lonScale}
}

// hash01 maps (seed, bucket) to a uniform [0,1) value without
// consuming stream state, so Position stays a pure function.
func hash01(seed, bucket uint64) float64 {
	z := seed ^ bucket*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// Stationary is a device that never moves, modulo rare reselection
// jitter to a pseudo-position up to JitterKm away.
type Stationary struct {
	Home geo.Point
	// JitterKm is how far the apparent position moves during a
	// reselection episode.
	JitterKm float64
	// ReselectProb is the probability that any given hour falls in a
	// reselection episode.
	ReselectProb float64
	seed         uint64
}

// NewStationary draws a stationary model: the home point is placed
// within spreadKm of centre.
func NewStationary(src *rng.Source, centre geo.Point, spreadKm float64) Stationary {
	return Stationary{
		Home:         offsetKm(centre, (src.Float64()*2-1)*spreadKm, (src.Float64()*2-1)*spreadKm),
		JitterKm:     1.5,
		ReselectProb: 0.01,
		seed:         src.Uint64(),
	}
}

// Position implements Model.
func (s *Stationary) Position(t time.Time) geo.Point {
	hour := uint64(t.Unix() / 3600)
	if hash01(s.seed, hour) < s.ReselectProb {
		ang := 2 * math.Pi * hash01(s.seed^0xabcd, hour)
		return offsetKm(s.Home, s.JitterKm*math.Cos(ang), s.JitterKm*math.Sin(ang))
	}
	return s.Home
}

// Commuter pendulums between a home and a work location on a weekday
// schedule.
type Commuter struct {
	Home geo.Point
	Work geo.Point
	seed uint64
}

// NewCommuter draws a commuter: home within spreadKm of centre, work
// 2–15 km from home.
func NewCommuter(src *rng.Source, centre geo.Point, spreadKm float64) Commuter {
	home := offsetKm(centre, (src.Float64()*2-1)*spreadKm, (src.Float64()*2-1)*spreadKm)
	d := 2 + 13*src.Float64()
	ang := 2 * math.Pi * src.Float64()
	return Commuter{
		Home: home,
		Work: offsetKm(home, d*math.Cos(ang), d*math.Sin(ang)),
		seed: src.Uint64(),
	}
}

// Position implements Model. Weekdays 09:00–17:00 are spent at work,
// 08:00–09:00 and 17:00–18:00 in transit (linear interpolation),
// everything else at home; weekends wander near home.
func (c *Commuter) Position(t time.Time) geo.Point {
	wd := t.Weekday()
	if wd == time.Saturday || wd == time.Sunday {
		hour := uint64(t.Unix() / 3600)
		ang := 2 * math.Pi * hash01(c.seed, hour)
		d := 3 * hash01(c.seed^0x5555, hour)
		return offsetKm(c.Home, d*math.Cos(ang), d*math.Sin(ang))
	}
	h := float64(t.Hour()) + float64(t.Minute())/60
	switch {
	case h < 8 || h >= 18:
		return c.Home
	case h < 9:
		return lerp(c.Home, c.Work, h-8)
	case h < 17:
		return c.Work
	default:
		return lerp(c.Work, c.Home, h-17)
	}
}

func lerp(a, b geo.Point, f float64) geo.Point {
	return geo.Point{Lat: a.Lat + (b.Lat-a.Lat)*f, Lon: a.Lon + (b.Lon-a.Lon)*f}
}

// Vehicular is sustained movement: the device drives legs of tens of
// kilometres, bouncing inside a box around its base so multi-day
// simulations stay within the host country's sector lattice.
type Vehicular struct {
	Base    geo.Point
	RangeKm float64 // half-width of the operating box
	SpeedKm float64 // average speed in km/h
	seed    uint64
}

// NewVehicular draws a vehicle operating within rangeKm of centre.
func NewVehicular(src *rng.Source, centre geo.Point, rangeKm float64) Vehicular {
	return Vehicular{
		Base:    centre,
		RangeKm: rangeKm,
		SpeedKm: 40 + 50*src.Float64(),
		seed:    src.Uint64(),
	}
}

// Position implements Model. The trajectory folds a constant-speed
// 1-D walk onto independent x/y axes (triangle waves with
// pseudo-random phase per axis), which produces long straight legs
// with direction reversals — adequate for sector-churn purposes.
func (v *Vehicular) Position(t time.Time) geo.Point {
	elapsed := float64(t.Unix()) / 3600 // hours
	dist := elapsed * v.SpeedKm
	period := 4 * v.RangeKm
	fold := func(x float64) float64 {
		m := math.Mod(x, period)
		if m < 0 {
			m += period
		}
		if m > period/2 {
			m = period - m
		}
		return m - v.RangeKm // [-RangeKm, RangeKm]
	}
	phaseX := period * hash01(v.seed, 1)
	phaseY := period * hash01(v.seed, 2)
	// Different axis speeds avoid closed orbits.
	return offsetKm(v.Base, fold(dist*0.83+phaseX), fold(dist*0.59+phaseY))
}

// Waypoint wanders between random waypoints drawn per epoch.
type Waypoint struct {
	Centre   geo.Point
	RadiusKm float64
	EpochH   float64 // hours per waypoint epoch
	seed     uint64
}

// NewWaypoint draws a random-waypoint wanderer around centre.
func NewWaypoint(src *rng.Source, centre geo.Point, radiusKm float64) Waypoint {
	return Waypoint{Centre: centre, RadiusKm: radiusKm, EpochH: 6, seed: src.Uint64()}
}

// Position implements Model: it interpolates between the epoch's
// endpoint waypoints.
func (w *Waypoint) Position(t time.Time) geo.Point {
	eh := w.EpochH * 3600
	epoch := uint64(float64(t.Unix()) / eh)
	frac := math.Mod(float64(t.Unix()), eh) / eh
	from := w.waypoint(epoch)
	to := w.waypoint(epoch + 1)
	return lerp(from, to, frac)
}

func (w *Waypoint) waypoint(epoch uint64) geo.Point {
	ang := 2 * math.Pi * hash01(w.seed, epoch)
	d := w.RadiusKm * math.Sqrt(hash01(w.seed^0x7777, epoch))
	return offsetKm(w.Centre, d*math.Cos(ang), d*math.Sin(ang))
}
