// Package geo provides the small amount of spherical geometry the
// mobility analysis needs: great-circle distances, time-weighted
// centroids and the radius of gyration metric from §5.3 of the paper
// (a weighted RMS distance of a device's cell sectors from its
// centroid, the standard mobility-range measure).
package geo

import "math"

// EarthRadiusKm is the mean Earth radius used for all distances.
const EarthRadiusKm = 6371.0

// Point is a geographic coordinate in degrees.
type Point struct {
	Lat float64
	Lon float64
}

const degToRad = math.Pi / 180

// DistanceKm returns the great-circle (haversine) distance between two
// points in kilometres.
func DistanceKm(a, b Point) float64 {
	return DistanceRadKm(ToRadians(a), ToRadians(b))
}

// Radians is one point's half of the haversine: its latitude and
// longitude in radians and the cosine of its latitude. A loop that
// measures many distances from or to one point converts it once.
type Radians struct {
	Lat, Lon, CosLat float64
}

// ToRadians returns p's half of the haversine.
func ToRadians(p Point) Radians {
	la := p.Lat * degToRad
	return Radians{Lat: la, Lon: p.Lon * degToRad, CosLat: math.Cos(la)}
}

// DistanceRadKm is DistanceKm(a, b) from the two points' halves. It is
// DistanceKm's only body, so both give bit-identical results however
// the halves were computed and reused.
func DistanceRadKm(a, b Radians) float64 {
	dLat := b.Lat - a.Lat
	dLon := b.Lon - a.Lon
	s1 := math.Sin(dLat / 2)
	s2 := math.Sin(dLon / 2)
	h := s1*s1 + a.CosLat*b.CosLat*s2*s2
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadiusKm * math.Asin(math.Sqrt(h))
}

// Visit is a dwell at a location with a weight (the paper weights by
// time spent connected to the sector).
type Visit struct {
	At     Point
	Weight float64 // must be >= 0; zero-weight visits are ignored
}

// Centroid returns the weighted centroid of the visits. For the
// city-to-country scales the analysis works at, the flat weighted
// mean of coordinates is within measurement noise of the true
// spherical centroid; longitudes are unwrapped around the first visit
// so clusters straddling the antimeridian do not average to the wrong
// side of the planet. The second return is false when the visits
// carry no positive weight.
func Centroid(visits []Visit) (Point, bool) {
	var sumLat, sumLon, sumW float64
	first := true
	var ref float64
	for _, v := range visits {
		if v.Weight <= 0 {
			continue
		}
		lon := v.At.Lon
		if first {
			ref = lon
			first = false
		} else {
			for lon-ref > 180 {
				lon -= 360
			}
			for lon-ref < -180 {
				lon += 360
			}
		}
		sumLat += v.At.Lat * v.Weight
		sumLon += lon * v.Weight
		sumW += v.Weight
	}
	if sumW == 0 {
		return Point{}, false
	}
	lon := sumLon / sumW
	for lon > 180 {
		lon -= 360
	}
	for lon < -180 {
		lon += 360
	}
	return Point{Lat: sumLat / sumW, Lon: lon}, true
}

// Gyration returns the weighted radius of gyration in kilometres: the
// square root of the weighted mean squared distance of each visit
// from the weighted centroid. A stationary device has gyration 0; the
// paper reports that ~80% of inbound-roaming M2M devices stay under
// 1 km (and attributes part of the residual to cell reselection, not
// movement).
func Gyration(visits []Visit) float64 {
	c, ok := Centroid(visits)
	if !ok {
		return 0
	}
	// The centroid's half of the haversine is computed once, and a run
	// of visits at one point is measured once: a catalog row holds one
	// visit per dwell between events, and most of a device's events
	// stay on one sector (about 85 % of a batch_repro pass's visits
	// repeat the one before).
	cr := ToRadians(c)
	var sum, sumW, d float64
	var at Point
	measured := false
	for _, v := range visits {
		if v.Weight <= 0 {
			continue
		}
		if !measured || v.At != at {
			at, d, measured = v.At, DistanceRadKm(ToRadians(v.At), cr), true
		}
		sum += v.Weight * d * d
		sumW += v.Weight
	}
	if sumW == 0 {
		return 0
	}
	return math.Sqrt(sum / sumW)
}

// GyrationUnweighted ignores weights (every visit counts once). Kept
// for the abl-gyration experiment: without time weighting, brief
// cell reselections inflate the apparent mobility of stationary
// devices.
func GyrationUnweighted(visits []Visit) float64 {
	// A day of a few visits fits the stack array; longer ones spill.
	var buf [8]Visit
	uw := buf[:0]
	for _, v := range visits {
		if v.Weight > 0 {
			uw = append(uw, Visit{At: v.At, Weight: 1})
		}
	}
	return Gyration(uw)
}
