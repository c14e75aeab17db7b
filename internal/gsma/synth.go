package gsma

import (
	"strconv"
	"sync"
	"weak"

	"whereroam/internal/identity"
	"whereroam/internal/radio"
	"whereroam/internal/rng"
)

// segment describes how one archetype's corner of the catalog is
// synthesized.
type segment struct {
	arch        Archetype
	named       []string // named vendors, most popular first
	tailVendors int      // synthetic long-tail vendors
	models      int      // total models in the segment
	tacBase     uint32   // first TAC of the segment's allocation block
	osFor       func(src *rng.Source, vendorRank int) OS
	typeFor     func(src *rng.Source) DeviceType
	bandsFor    func(src *rng.Source) radio.RATSet
	// vendorShare, when non-nil, fixes the total popularity mass of
	// the first len(vendorShare) named vendors; the remaining mass is
	// spread Zipf-like over all other models. Used to pin
	// Gemalto/Telit/Sierra to the ≈75% share the paper reports.
	vendorShare []float64
}

// lastBuild is Synthesize's one-entry memo: the seed of the most recent
// build and a weak pointer to its catalog. Weak, so a DB is shared by
// every dataset alive at the same time yet freed once none references
// it, never pinned for the life of the process.
var lastBuild struct {
	mu   sync.Mutex
	seed uint64
	db   weak.Pointer[DB]
}

// Synthesize returns the standard catalog for seed. The composition
// follows the scale the paper reports: ~2,400 vendors, ~25,000 models.
// While a catalog for the same seed is still referenced, Synthesize
// returns that one: a DB is read-only after construction (its
// restricted-sampler cache is guarded and order-independent), so
// sharing it is indistinguishable from building a copy.
func Synthesize(seed uint64) *DB {
	lastBuild.mu.Lock()
	defer lastBuild.mu.Unlock()
	if lastBuild.seed == seed {
		if db := lastBuild.db.Value(); db != nil {
			return db
		}
	}
	db := synthesize(seed)
	lastBuild.seed, lastBuild.db = seed, weak.Make(db)
	return db
}

// synthesize builds the standard catalog for seed.
func synthesize(seed uint64) *DB {
	src := rng.New(seed).Split("gsma")
	db := &DB{
		byTAC:   make(map[identity.TAC]DeviceInfo, 26000),
		vendors: map[string]bool{},
	}
	for _, seg := range standardSegments {
		models, weights := synthSegment(db, src.Split(seg.arch.String()), seg)
		db.byArch[seg.arch] = models
		db.pick[seg.arch] = rng.NewWeighted(weights)
	}
	return db
}

// standardSegments are the catalog's market segments, in build order.
var standardSegments = []segment{
	{
		arch: ArchSmartphone,
		named: []string{
			"Samsung", "Apple", "Huawei", "Xiaomi", "LG", "Sony", "Motorola",
			"OnePlus", "Oppo", "Vivo", "Nokia Mobile", "Google", "HTC", "Honor",
			"Realme", "Asus", "Lenovo", "BlackBerry Ltd", "Wiko", "Fairphone",
		},
		tailVendors: 380,
		models:      12000,
		tacBase:     35200000,
		osFor: func(src *rng.Source, vendorRank int) OS {
			switch {
			case vendorRank == 1: // Apple
				return OSiOS
			case vendorRank == 17: // BlackBerry Ltd
				return OSBlackBerry
			default:
				if src.Bool(0.015) {
					return OSWindows
				}
				return OSAndroid
			}
		},
		typeFor: func(src *rng.Source) DeviceType {
			if src.Bool(0.06) {
				return TypeTablet
			}
			return TypeSmartphone
		},
		bandsFor: func(src *rng.Source) radio.RATSet {
			if src.Bool(0.85) {
				return radio.Has2G | radio.Has3G | radio.Has4G
			}
			return radio.Has2G | radio.Has3G
		},
	},
	{
		arch: ArchFeaturePhone,
		named: []string{
			"Nokia", "Alcatel", "ZTE", "Samsung Basic", "Doro", "Emporia",
			"Kyocera", "Philips", "Energizer", "CAT",
		},
		tailVendors: 290,
		models:      4000,
		tacBase:     35400000,
		osFor: func(src *rng.Source, vendorRank int) OS {
			if src.Bool(0.2) {
				return OSKaiOS
			}
			return OSProprietary
		},
		typeFor: func(src *rng.Source) DeviceType { return TypeFeaturePhone },
		bandsFor: func(src *rng.Source) radio.RATSet {
			if src.Bool(0.55) {
				return radio.Has2G
			}
			return radio.Has2G | radio.Has3G
		},
	},
	{
		arch: ArchM2MModule,
		named: []string{
			"Gemalto", "Telit", "Sierra Wireless", "Quectel", "SIMCom",
			"u-blox", "Fibocom", "Cinterion", "Neoway", "MultiTech",
			"Digi International", "Nimbelink", "Thales IoT", "Sequans",
			"Murata", "Wistron NeWeb", "LongSung", "Meiglink", "Cavli", "GosuncnWelink",
		},
		// Pin the three dominant vendors to their combined ≈75%
		// share of the M2M market (§4.3).
		vendorShare: []float64{0.34, 0.24, 0.17},
		tailVendors: 1380,
		models:      7000,
		tacBase:     35600000,
		osFor: func(src *rng.Source, vendorRank int) OS {
			switch {
			case src.Bool(0.5):
				return OSRTOS
			case src.Bool(0.5):
				return OSLinux
			default:
				return OSNone
			}
		},
		typeFor: func(src *rng.Source) DeviceType {
			if src.Bool(0.55) {
				return TypeModule
			}
			if src.Bool(0.8) {
				return TypeModem
			}
			return TypeRouter
		},
		bandsFor: func(src *rng.Source) radio.RATSet {
			// The installed M2M base is 2G heavy (§6.1: 77.4% of
			// M2M devices are active on 2G only).
			switch {
			case src.Bool(0.55):
				return radio.Has2G
			case src.Bool(0.5):
				return radio.Has2G | radio.Has3G
			default:
				return radio.Has2G | radio.Has3G | radio.Has4G
			}
		},
	},
	{
		arch: ArchVehicle,
		named: []string{
			"Scania Telematics", "BMW Connected", "Audi Connect", "Daimler TSS",
			"Volvo Cars", "Tesla", "Renault Connect", "PSA Groupe", "Ford Telematics",
			"Toyota Connected", "Continental AG", "Bosch Automotive", "Harman",
			"LG Vehicle", "Panasonic Automotive", "Valeo",
		},
		tailVendors: 20,
		models:      1000,
		tacBase:     35800000,
		osFor: func(src *rng.Source, vendorRank int) OS {
			if src.Bool(0.6) {
				return OSLinux
			}
			return OSRTOS
		},
		typeFor: func(src *rng.Source) DeviceType {
			if src.Bool(0.7) {
				return TypeVehicle
			}
			return TypeModule
		},
		bandsFor: func(src *rng.Source) radio.RATSet {
			// Connected cars need seamless wide-area coverage and
			// ship multi-RAT modems (§3.2 on the DE HMNO).
			if src.Bool(0.8) {
				return radio.Has2G | radio.Has3G | radio.Has4G
			}
			return radio.Has2G | radio.Has3G
		},
	},
	{
		arch: ArchWearable,
		named: []string{
			"Apple Watch", "Samsung Gear", "Fitbit", "Garmin", "Huami",
			"Fossil", "TicWatch", "Withings", "Polar", "Suunto",
		},
		tailVendors: 290,
		models:      1000,
		tacBase:     35900000,
		osFor: func(src *rng.Source, vendorRank int) OS {
			if src.Bool(0.5) {
				return OSRTOS
			}
			return OSProprietary
		},
		typeFor: func(src *rng.Source) DeviceType { return TypeWearable },
		bandsFor: func(src *rng.Source) radio.RATSet {
			if src.Bool(0.7) {
				return radio.Has2G | radio.Has3G | radio.Has4G
			}
			return radio.Has2G | radio.Has3G
		},
	},
}

// synthSegment generates one archetype's models plus their popularity
// weights (in the order of the returned slice).
func synthSegment(db *DB, src *rng.Source, seg segment) ([]DeviceInfo, []float64) {
	vendors := make([]string, 0, len(seg.named)+seg.tailVendors)
	vendors = append(vendors, seg.named...)
	var tail stringSlab
	arch := seg.arch.String()
	for i := 0; i < seg.tailVendors; i++ {
		tail.buf = append(append(tail.buf, arch...), "-oem-"...)
		tail.buf = appendZeroPadded(tail.buf, i, 4)
		tail.end()
	}
	vendors = append(vendors, tail.strings()...)
	// Split the model budget: vendors earlier in the list get more
	// models (popular vendors maintain bigger portfolios). Every
	// vendor gets at least one model.
	counts := make([]int, len(vendors))
	remaining := seg.models - len(vendors)
	if remaining < 0 {
		panic("gsma: segment has fewer models than vendors")
	}
	weightTotal := 0.0
	for i := range vendors {
		weightTotal += 1 / float64(i+1)
	}
	for i := range vendors {
		counts[i] = 1 + int(float64(remaining)*(1/float64(i+1))/weightTotal)
	}

	// Model names run "<vendor> <series>-<n>", n counting from one per
	// vendor. No name is longer than 32 bytes, so buf never regrows.
	names := stringSlab{buf: make([]byte, 0, 32*seg.models), ends: make([]int, 0, seg.models)}
	series := modelSeries(seg.arch)
	for vi, vendor := range vendors {
		for m := 0; m < counts[vi]; m++ {
			names.buf = append(append(names.buf, vendor...), ' ')
			names.buf = append(append(names.buf, series...), '-')
			names.buf = strconv.AppendInt(names.buf, int64(m+1), 10)
			names.end()
		}
	}
	model := names.strings()

	tac := seg.tacBase
	models := make([]DeviceInfo, 0, len(model))
	vendorOf := make([]int, 0, len(model)) // vendor index per model
	for vi, vendor := range vendors {
		db.vendors[vendor] = true
		for range counts[vi] {
			di := DeviceInfo{
				TAC:    identity.TAC(tac),
				Vendor: vendor,
				Model:  model[len(models)],
				OS:     seg.osFor(src, vi),
				Type:   seg.typeFor(src),
				Bands:  seg.bandsFor(src),
			}
			tac++
			db.byTAC[di.TAC] = di
			models = append(models, di)
			vendorOf = append(vendorOf, vi)
		}
	}

	// Popularity weights. Default: Zipf over the vendor-major model
	// order. With vendorShare set: each pinned vendor's models share
	// exactly that vendor's mass (Zipf within the vendor); all other
	// models split the remaining mass Zipf-like.
	weights := make([]float64, len(models))
	if seg.vendorShare == nil {
		for i := range weights {
			weights[i] = 1 / float64(i+1)
		}
		return models, weights
	}
	pinnedMass := 0.0
	for _, s := range seg.vendorShare {
		pinnedMass += s
	}
	// Per-vendor normalizers.
	harmonic := func(n int) float64 {
		h := 0.0
		for k := 1; k <= n; k++ {
			h += 1 / float64(k)
		}
		return h
	}
	// Rank counters per pinned vendor and for the tail.
	pinnedRank := make([]int, len(seg.vendorShare))
	pinnedNorm := make([]float64, len(seg.vendorShare))
	for vi := range pinnedNorm {
		pinnedNorm[vi] = harmonic(counts[vi])
	}
	tailRank := 0
	tailCount := 0
	for _, vi := range vendorOf {
		if vi >= len(seg.vendorShare) {
			tailCount++
		}
	}
	tailNorm := harmonic(tailCount)
	for i, vi := range vendorOf {
		if vi < len(seg.vendorShare) {
			pinnedRank[vi]++
			weights[i] = seg.vendorShare[vi] / pinnedNorm[vi] / float64(pinnedRank[vi])
		} else {
			tailRank++
			weights[i] = (1 - pinnedMass) / tailNorm / float64(tailRank)
		}
	}
	return models, weights
}

// stringSlab builds many short strings as substrings of one: append
// each string's bytes to buf and call end after each. A catalog's
// ~25 000 names then cost a few allocations instead of one each.
type stringSlab struct {
	buf  []byte
	ends []int
}

// end closes the string whose bytes were appended since the last end.
func (s *stringSlab) end() { s.ends = append(s.ends, len(s.buf)) }

// strings returns the closed strings in order.
func (s *stringSlab) strings() []string {
	all := string(s.buf)
	out := make([]string, len(s.ends))
	lo := 0
	for i, hi := range s.ends {
		out[i], lo = all[lo:hi], hi
	}
	return out
}

// appendZeroPadded appends the non-negative v in decimal, zero-padded
// to width digits and in full when wider: fmt's %0*d.
func appendZeroPadded(dst []byte, v, width int) []byte {
	var digits [20]byte
	d := strconv.AppendInt(digits[:0], int64(v), 10)
	for i := len(d); i < width; i++ {
		dst = append(dst, '0')
	}
	return append(dst, d...)
}

func modelSeries(a Archetype) string {
	switch a {
	case ArchSmartphone:
		return "Galaxy"
	case ArchFeaturePhone:
		return "Classic"
	case ArchM2MModule:
		return "MOD"
	case ArchVehicle:
		return "TCU"
	case ArchWearable:
		return "Band"
	}
	return "X"
}
