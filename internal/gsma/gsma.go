// Package gsma models the commercial GSMA TAC device catalog the
// paper joins against (§4.1 "Device properties"): a mapping from the
// 8-digit Type Allocation Code to vendor, model, operating system,
// radio capability and a coarse device-type label.
//
// The real catalog is licensed; this package synthesizes one with the
// same shape, including the properties the paper leans on:
//
//   - scale: ~2,400 vendors and ~25,000 models (the paper observes
//     2,436 and 24,991 across 22 days), far too many for the manual
//     classification of prior work;
//   - concentration: Gemalto, Telit and Sierra Wireless dominate the
//     M2M module space (≈75% of inbound-roaming devices);
//   - ambiguity: non-phone devices carry generic "Modem"/"Module"
//     labels that do not by themselves imply an IoT application.
package gsma

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"

	"whereroam/internal/identity"
	"whereroam/internal/radio"
	"whereroam/internal/rng"
)

// DeviceType is the coarse GSMA device-type label.
type DeviceType uint8

// GSMA device-type labels. Only Smartphone and FeaturePhone are
// directly actionable for classification; Modem/Module are the
// ambiguous labels §4.3 calls out.
const (
	TypeUnknown DeviceType = iota
	TypeSmartphone
	TypeFeaturePhone
	TypeModem
	TypeModule
	TypeTablet
	TypeWearable
	TypeVehicle
	TypeRouter
)

var typeNames = [...]string{
	"Unknown", "Smartphone", "Feature Phone", "Modem", "Module",
	"Tablet", "Wearable", "Vehicle", "WLAN Router",
}

func (t DeviceType) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return "type(" + strconv.Itoa(int(t)) + ")"
}

// OS identifies the device operating system as catalogued by GSMA.
// The paper treats Android/iOS/BlackBerry/Windows Mobile as "major
// smartphone OS" for the smart class.
type OS string

// Operating systems appearing in the catalog.
const (
	OSAndroid     OS = "Android"
	OSiOS         OS = "iOS"
	OSBlackBerry  OS = "BlackBerry"
	OSWindows     OS = "Windows Mobile"
	OSKaiOS       OS = "KaiOS"
	OSRTOS        OS = "RTOS"
	OSLinux       OS = "Linux"
	OSProprietary OS = "Proprietary"
	OSNone        OS = ""
)

// IsSmartphoneOS reports whether the OS is one of the four the paper
// accepts as evidence for the smart class.
func (o OS) IsSmartphoneOS() bool {
	switch o {
	case OSAndroid, OSiOS, OSBlackBerry, OSWindows:
		return true
	}
	return false
}

// DeviceInfo is one catalog row.
type DeviceInfo struct {
	TAC    identity.TAC
	Vendor string
	Model  string
	OS     OS
	Type   DeviceType
	Bands  radio.RATSet // radio capability of the model
}

// Archetype selects a market segment when drawing devices from the
// catalog. It is generator-side knowledge: the catalog rows themselves
// carry only the ambiguous GSMA labels.
type Archetype uint8

// Market segments used by the population generators.
const (
	ArchSmartphone Archetype = iota
	ArchFeaturePhone
	ArchM2MModule
	ArchVehicle
	ArchWearable
	archCount
)

var archNames = [...]string{"smartphone", "featurephone", "m2mmodule", "vehicle", "wearable"}

func (a Archetype) String() string {
	if int(a) < len(archNames) {
		return archNames[a]
	}
	return "arch(" + strconv.Itoa(int(a)) + ")"
}

// DB is a synthesized catalog whose rows never change after
// Synthesize. All lookups are safe for concurrent use; a DB must not
// be copied.
type DB struct {
	byTAC   map[identity.TAC]DeviceInfo
	byArch  [archCount][]DeviceInfo // models per archetype, popularity-ordered
	pick    [archCount]*rng.Weighted
	vendors map[string]bool

	// restricted holds the vendor-restricted samplers PickFromVendors
	// has built so far — a handful at most, so lookup is a scan. It is
	// the catalog's only mutable state; restrictMu guards it.
	restrictMu sync.Mutex
	restricted []*restrictedPick
}

// restrictedPick is one archetype's models narrowed to a vendor set,
// with the sampler over their popularity weights.
type restrictedPick struct {
	arch    Archetype
	vendors []string
	models  []DeviceInfo
	pick    *rng.Weighted
}

// matches reports whether r was built for a and exactly the listed
// vendors, in any order and with any repeats.
func (r *restrictedPick) matches(a Archetype, vendors []string) bool {
	if r.arch != a {
		return false
	}
	for _, v := range vendors {
		if !slices.Contains(r.vendors, v) {
			return false
		}
	}
	for _, v := range r.vendors {
		if !slices.Contains(vendors, v) {
			return false
		}
	}
	return true
}

// Lookup returns the catalog row for the TAC.
func (db *DB) Lookup(tac identity.TAC) (DeviceInfo, bool) {
	di, ok := db.byTAC[tac]
	return di, ok
}

// Pick draws a model of the archetype with the market's popularity
// skew (Zipf over models, with the M2M module segment additionally
// concentrated on its three dominant vendors). src provides the
// randomness so callers control determinism.
func (db *DB) Pick(src *rng.Source, a Archetype) DeviceInfo {
	models := db.byArch[a]
	return models[db.pick[a].DrawFrom(src)]
}

// PickFromVendors draws a model of the archetype restricted to the
// listed vendors, preserving relative popularity. It panics if no
// model matches, which indicates generator misconfiguration. The
// restricted sampler is built on the first call for an (archetype,
// vendor set) and shared by every later one; a call consumes exactly
// one draw from src.
func (db *DB) PickFromVendors(src *rng.Source, a Archetype, vendors ...string) DeviceInfo {
	r := db.restrictedFor(a, vendors)
	return r.models[r.pick.DrawFrom(src)]
}

// restrictedFor returns the sampler for (a, vendors), building it on
// first use.
func (db *DB) restrictedFor(a Archetype, vendors []string) *restrictedPick {
	db.restrictMu.Lock()
	defer db.restrictMu.Unlock()
	for _, r := range db.restricted {
		if r.matches(a, vendors) {
			return r
		}
	}
	r := &restrictedPick{arch: a, vendors: slices.Clone(vendors)}
	var weights []float64
	for rank, di := range db.byArch[a] {
		if slices.Contains(vendors, di.Vendor) {
			r.models = append(r.models, di)
			weights = append(weights, 1/float64(rank+1))
		}
	}
	if len(r.models) == 0 {
		// Joined, not %v: formatting the slice itself would make every
		// caller's variadic argument escape to the heap.
		panic(fmt.Sprintf("gsma: no %v models from vendors [%s]", a, strings.Join(vendors, " ")))
	}
	r.pick = rng.NewWeighted(weights)
	db.restricted = append(db.restricted, r)
	return r
}
