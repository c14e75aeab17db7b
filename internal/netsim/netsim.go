// Package netsim simulates the inter-operator plane of the cellular
// world the paper measures: operators, the roaming agreements between
// them (bilateral and via an IPX roaming hub, §2.1), the roaming
// architecture used per pair (home-routed / local breakout / IPX hub
// breakout, Fig. 1), home-network admission decisions, and the
// signaling sequences devices trigger when attaching to and switching
// between visited networks.
package netsim

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"whereroam/internal/geo"
	"whereroam/internal/identity"
	"whereroam/internal/mccmnc"
	"whereroam/internal/radio"
	"whereroam/internal/rng"
	"whereroam/internal/signaling"
)

// RoamingConfig is the network architecture used for a roaming pair
// (Fig. 1).
type RoamingConfig uint8

// Roaming configurations.
const (
	// ConfigHR routes all user traffic back to the home network's
	// PGW; the default in European MNOs.
	ConfigHR RoamingConfig = iota
	// ConfigLBO breaks out locally at the visited network.
	ConfigLBO
	// ConfigIHBO breaks out at the IPX hub, the compromise M2M
	// platforms use for far destinations (§3.2).
	ConfigIHBO
)

var configNames = [...]string{"HR", "LBO", "IHBO"}

func (c RoamingConfig) String() string {
	if int(c) < len(configNames) {
		return configNames[c]
	}
	return "config(" + strconv.Itoa(int(c)) + ")"
}

// World is the set of operators and the agreements between them. It
// is immutable after construction and safe for concurrent readers.
type World struct {
	operators map[mccmnc.PLMN]mccmnc.Operator
	hub       map[mccmnc.PLMN]bool
	bilateral map[pair]bool
	// byISO holds each country's PLMNs sorted by PLMN: NewWorld fills
	// it in AllOperators order, which is PLMN order.
	byISO map[string][]mccmnc.PLMN
}

type pair struct{ a, b mccmnc.PLMN }

func normPair(a, b mccmnc.PLMN) pair {
	if a.MCC > b.MCC || (a.MCC == b.MCC && a.MNC > b.MNC) {
		a, b = b, a
	}
	return pair{a, b}
}

// Config tunes world construction.
type Config struct {
	// HubShare is the fraction of operators connected to the IPX
	// roaming hub, by region. The carrier under study interconnects
	// predominantly in Europe and Latin America (§3).
	HubShare map[mccmnc.Region]float64
	// BilateralPerOperator is the expected number of extra bilateral
	// agreements each operator holds with random partners.
	BilateralPerOperator int
	// AlwaysHub lists operators guaranteed to sit on the hub
	// regardless of the regional draw — the paper's anchor networks
	// (the four HMNOs, the UK host, and the inbound-roamer homes).
	AlwaysHub []mccmnc.PLMN
	// Seed drives the deterministic agreement draw.
	Seed uint64
}

// DefaultConfig returns the footprint used across the repository: a
// hub strong in Europe/LatAm with thinner reach elsewhere, matching
// the carrier's 19-country/40-PoP core plus interconnects (§3).
func DefaultConfig() Config {
	return Config{
		HubShare: map[mccmnc.Region]float64{
			mccmnc.RegionEurope:       0.95,
			mccmnc.RegionLatAm:        0.90,
			mccmnc.RegionNorthAmerica: 0.60,
			mccmnc.RegionAPAC:         0.60,
			mccmnc.RegionMEA:          0.55,
		},
		BilateralPerOperator: 3,
		AlwaysHub: []mccmnc.PLMN{
			mccmnc.MustParse("21407"),  // ES — the dominant HMNO
			mccmnc.MustParse("334020"), // MX
			mccmnc.MustParse("722070"), // AR
			mccmnc.MustParse("26201"),  // DE
			mccmnc.MustParse("23410"),  // the UK visited MNO
			mccmnc.MustParse("20404"),  // NL — smart-meter SIM home
			mccmnc.MustParse("24001"),  // SE
			mccmnc.MustParse("50501"),  // AU — the paper's far-destination example
		},
		Seed: 1,
	}
}

// DefaultWorld returns the world of DefaultConfig, built on first use
// and shared thereafter: a World is read-only once built, so every
// caller may read it concurrently.
var DefaultWorld = sync.OnceValue(func() *World { return NewWorld(DefaultConfig()) })

// NewWorld builds the operator world from the mccmnc registry.
func NewWorld(cfg Config) *World {
	w := &World{
		operators: map[mccmnc.PLMN]mccmnc.Operator{},
		hub:       map[mccmnc.PLMN]bool{},
		bilateral: map[pair]bool{},
		byISO:     map[string][]mccmnc.PLMN{},
	}
	src := rng.New(cfg.Seed).Split("netsim")
	ops := mccmnc.AllOperators()
	for _, op := range ops {
		w.operators[op.PLMN] = op
		w.byISO[op.ISO] = append(w.byISO[op.ISO], op.PLMN)
		c, _ := mccmnc.CountryByISO(op.ISO)
		share := cfg.HubShare[c.Region]
		if src.SplitN("hub", plmnKey(op.PLMN)).Bool(share) {
			w.hub[op.PLMN] = true
		}
	}
	for _, p := range cfg.AlwaysHub {
		w.hub[p] = true
	}
	// Bilateral agreements with random partners (they complement the
	// hub, §2.1).
	for _, op := range ops {
		s := src.SplitN("bilateral", plmnKey(op.PLMN))
		for i := 0; i < cfg.BilateralPerOperator; i++ {
			partner := ops[s.Intn(len(ops))]
			if partner.ISO == op.ISO {
				continue
			}
			w.bilateral[normPair(op.PLMN, partner.PLMN)] = true
		}
	}
	return w
}

func plmnKey(p mccmnc.PLMN) uint64 {
	return uint64(p.MCC)<<32 | uint64(p.MNC)<<8 | uint64(p.MNCLen)
}

// RoamingAllowed reports whether a SIM of home may use visited:
// either the pair holds a bilateral agreement or both sit on the hub.
// Devices are always allowed on their own home network.
func (w *World) RoamingAllowed(home, visited mccmnc.PLMN) bool {
	if home == visited {
		return true
	}
	if w.bilateral[normPair(home, visited)] {
		return true
	}
	return w.hub[home] && w.hub[visited]
}

// AppendPartners appends to dst all networks a home SIM can roam onto
// in the ISO country, sorted by PLMN, and returns the extended slice.
func (w *World) AppendPartners(dst []mccmnc.PLMN, home mccmnc.PLMN, iso string) []mccmnc.PLMN {
	for _, v := range w.byISO[iso] {
		if v != home && w.RoamingAllowed(home, v) {
			dst = append(dst, v)
		}
	}
	return dst
}

// ConfigFor returns the roaming architecture used for the pair. Per
// the paper: HR is the European default; the platform switches to IPX
// hub breakout for far destinations to dodge the HR latency penalty
// (§3.2 names Spain→Australia).
func (w *World) ConfigFor(home, visited mccmnc.PLMN) RoamingConfig {
	if mccmnc.SameCountry(home, visited) {
		return ConfigLBO
	}
	hc, okH := mccmnc.CountryByMCC(home.MCC)
	vc, okV := mccmnc.CountryByMCC(visited.MCC)
	if !okH || !okV {
		return ConfigHR
	}
	d := geo.DistanceKm(geo.Point{Lat: hc.Lat, Lon: hc.Lon}, geo.Point{Lat: vc.Lat, Lon: vc.Lon})
	if d > 7000 && w.hub[home] && w.hub[visited] {
		return ConfigIHBO
	}
	return ConfigHR
}

// SelectionPolicy picks the visited network for a roaming device.
type SelectionPolicy uint8

// VMNO selection policies (the abl-policy experiment).
const (
	// PolicySticky keeps the previous VMNO until it fails.
	PolicySticky SelectionPolicy = iota
	// PolicyStrongest always picks the first allowed partner
	// (deterministic "best signal" stand-in).
	PolicyStrongest
	// PolicyRotate round-robins across allowed partners.
	PolicyRotate
)

func (p SelectionPolicy) String() string {
	switch p {
	case PolicySticky:
		return "sticky"
	case PolicyStrongest:
		return "strongest"
	case PolicyRotate:
		return "rotate"
	}
	return "policy(" + strconv.Itoa(int(p)) + ")"
}

// AppendAttachSequence appends the transactions of a network attach,
// as the platform probe records them, to dst and returns the extended
// slice: Authentication then UpdateLocation. result applies to the
// UpdateLocation; a failed authentication (UnknownSubscription)
// suppresses the UpdateLocation, matching procedure order. It appends
// at most two transactions, so a caller with a [2] or [3] array
// (SwitchSequence's size) on its stack allocates nothing.
func AppendAttachSequence(dst []signaling.Transaction, dev identity.DeviceID, t time.Time, sim, visited mccmnc.PLMN, rat radio.RAT, result signaling.Result) []signaling.Transaction {
	auth := signaling.Transaction{
		Device: dev, Time: t, SIM: sim, Visited: visited,
		Procedure: signaling.ProcAuthentication, RAT: rat, Result: signaling.ResultOK,
	}
	if result == signaling.ResultUnknownSubscription {
		auth.Result = result
		return append(dst, auth)
	}
	ul := signaling.Transaction{
		Device: dev, Time: t.Add(200 * time.Millisecond), SIM: sim, Visited: visited,
		Procedure: signaling.ProcUpdateLocation, RAT: rat, Result: result,
	}
	return append(dst, auth, ul)
}

// AppendSwitchSequence appends the transactions of an inter-VMNO
// switch to dst and returns the extended slice: the home network
// cancels the old location, then the device attaches to the new VMNO
// one second later (AppendAttachSequence). It appends at most three
// transactions.
func AppendSwitchSequence(dst []signaling.Transaction, dev identity.DeviceID, t time.Time, sim, oldVMNO, newVMNO mccmnc.PLMN, rat radio.RAT, result signaling.Result) []signaling.Transaction {
	dst = append(dst, signaling.Transaction{
		Device: dev, Time: t, SIM: sim, Visited: oldVMNO,
		Procedure: signaling.ProcCancelLocation, RAT: rat, Result: signaling.ResultOK,
	})
	return AppendAttachSequence(dst, dev, t.Add(time.Second), sim, newVMNO, rat, result)
}

// String summarizes the world for debugging.
func (w *World) String() string {
	return fmt.Sprintf("world{operators=%d hub=%d bilateral=%d}", len(w.operators), len(w.hub), len(w.bilateral))
}
