package radio

import (
	"fmt"
	"math"

	"whereroam/internal/geo"
	"whereroam/internal/mccmnc"
)

// Sector is one radio cell of an operator's network, with the
// coordinates the MNO's sector catalog provides (§4.1 uses them as a
// proxy for device position).
type Sector struct {
	ID  SectorID
	At  geo.Point
	RAT RATSet // technologies deployed on the sector
}

// Grid is a deterministic square lattice of sectors around a
// country's centroid, standing in for an operator's sector catalog.
// Spacing is uniform so nearest-sector lookup is O(1) index math,
// which keeps the mobility simulation linear in events. A sector's
// latitude depends on its row alone and its longitude on its column,
// so the grid keeps their halves of the haversine per row and per
// column: NearestWithRAT's ring search converts only the query point.
type Grid struct {
	origin  geo.Point // south-west corner
	rows    int
	cols    int
	spacing float64 // degrees between neighbouring sectors
	sectors []Sector
	// deployed is the union of every sector's RAT set: a RAT outside
	// it has no sector to find, so NearestWithRAT answers at once.
	deployed RATSet
	// rowRad holds each row's latitude in radians and its cosine
	// (Lon unused); colLon each column's longitude in radians. Both
	// come from geo.ToRadians of a sector's own position, so a
	// distance assembled from them is bit-identical to
	// geo.DistanceKm to that sector.
	rowRad []geo.Radians
	colLon []float64
}

// DefaultSpacingDeg is the default sector spacing (~2 km in latitude).
const DefaultSpacingDeg = 0.018

// NewGrid builds a rows×cols sector grid centred on the country's
// centroid. RAT deployment follows a realistic mix: all sectors carry
// 2G, ~85% carry 3G, ~70% carry 4G, assigned deterministically from
// the sector index so grids are reproducible without an RNG.
func NewGrid(c mccmnc.Country, rows, cols int, spacingDeg float64) *Grid {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("radio: NewGrid with non-positive dimensions %dx%d", rows, cols))
	}
	if spacingDeg <= 0 {
		spacingDeg = DefaultSpacingDeg
	}
	g := &Grid{
		origin: geo.Point{
			Lat: c.Lat - spacingDeg*float64(rows-1)/2,
			Lon: c.Lon - spacingDeg*float64(cols-1)/2,
		},
		rows:    rows,
		cols:    cols,
		spacing: spacingDeg,
	}
	g.sectors = make([]Sector, rows*cols)
	for i := range g.sectors {
		r, cl := i/cols, i%cols
		rats := Has2G
		// Deterministic pseudo-pattern: mix the index so deployment
		// does not stripe along rows.
		h := uint32(i)*2654435761 + 12345
		if h%100 < 85 {
			rats |= Has3G
		}
		if h%100 < 70 {
			rats |= Has4G
		}
		g.sectors[i] = Sector{
			ID: SectorID(i),
			At: geo.Point{
				Lat: g.origin.Lat + float64(r)*spacingDeg,
				Lon: g.origin.Lon + float64(cl)*spacingDeg,
			},
			RAT: rats,
		}
		g.deployed |= rats
	}
	g.rowRad = make([]geo.Radians, rows)
	for r := range g.rowRad {
		g.rowRad[r] = geo.ToRadians(g.sectors[r*cols].At)
	}
	g.colLon = make([]float64, cols)
	for c := range g.colLon {
		g.colLon[c] = geo.ToRadians(g.sectors[c].At).Lon
	}
	return g
}

// Sector returns the sector with the given ID.
func (g *Grid) Sector(id SectorID) (Sector, bool) {
	if int(id) >= len(g.sectors) {
		return Sector{}, false
	}
	return g.sectors[id], true
}

// Nearest returns the sector closest to the point, clamping points
// outside the lattice to its border (devices at a country's edge
// attach to the outermost sector).
func (g *Grid) Nearest(p geo.Point) Sector {
	r := int(math.Round((p.Lat - g.origin.Lat) / g.spacing))
	c := int(math.Round((p.Lon - g.origin.Lon) / g.spacing))
	r = clamp(r, 0, g.rows-1)
	c = clamp(c, 0, g.cols-1)
	return g.sectors[r*g.cols+c]
}

// NearestWithRAT returns the closest sector that deploys the RAT,
// searching outward ring by ring and ranking candidates by
// geo.DistanceKm (computed from the grid's per-row and per-column
// halves, bit-identically). The second return is false when no
// sector in the grid deploys it — known from the grid's deployed set
// without searching.
func (g *Grid) NearestWithRAT(p geo.Point, rat RAT) (Sector, bool) {
	if !g.deployed.Has(rat) {
		return Sector{}, false
	}
	base := g.Nearest(p)
	if base.RAT.Has(rat) {
		return base, true
	}
	br, bc := int(base.ID)/g.cols, int(base.ID)%g.cols
	q := geo.ToRadians(p)
	maxRing := g.rows + g.cols
	for ring := 1; ring <= maxRing; ring++ {
		var best *Sector
		bestD := math.Inf(1)
		for dr := -ring; dr <= ring; dr++ {
			r := br + dr
			if r < 0 || r >= g.rows {
				continue
			}
			// The top and bottom rows are the ring's full edge; every
			// row between contributes only its two sides, ±ring.
			step := 2 * ring
			if dr == -ring || dr == ring {
				step = 1
			}
			at := g.rowRad[r]
			for dc := -ring; dc <= ring; dc += step {
				c := bc + dc
				if c < 0 || c >= g.cols {
					continue
				}
				s := &g.sectors[r*g.cols+c]
				if !s.RAT.Has(rat) {
					continue
				}
				at.Lon = g.colLon[c]
				if d := geo.DistanceRadKm(q, at); d < bestD {
					best, bestD = s, d
				}
			}
		}
		if best != nil {
			return *best, true
		}
	}
	return Sector{}, false
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
