// Package radio models the radio access side of a cellular network as
// the paper's passive measurement sees it: radio access technologies
// (2G/3G/4G), the monitored radio interfaces (A, Gb, IuCS, IuPS,
// S1-MME), per-event log records, and the per-device "radio-flags"
// summary the devices-catalog carries (§4.1).
package radio

import (
	"fmt"
	"strconv"
	"time"

	"whereroam/internal/identity"
	"whereroam/internal/mccmnc"
)

// RAT is a radio access technology generation.
type RAT uint8

// Radio access technologies distinguished by the dataset. The paper's
// M2M dataset covers 4G only; the MNO dataset covers 2G/3G/4G. NB-IoT
// is the §8 extension: the LPWA technology whose roaming support was
// being trialled at publication time, and whose RAT is itself a
// reliable M2M discriminator for the visited network.
const (
	RATUnknown RAT = iota
	RAT2G
	RAT3G
	RAT4G
	RATNB // NB-IoT
)

var ratNames = [...]string{"unknown", "2G", "3G", "4G", "NB-IoT"}

func (r RAT) String() string {
	if int(r) < len(ratNames) {
		return ratNames[r]
	}
	return "rat(" + strconv.Itoa(int(r)) + ")"
}

// RATSet is the radio-flags bitset from the devices-catalog: one bit
// per RAT a device successfully communicated on.
type RATSet uint8

// Bit masks for RATSet.
const (
	Has2G RATSet = 1 << iota
	Has3G
	Has4G
	HasNB
)

func maskOf(r RAT) RATSet {
	switch r {
	case RAT2G:
		return Has2G
	case RAT3G:
		return Has3G
	case RAT4G:
		return Has4G
	case RATNB:
		return HasNB
	}
	return 0
}

// With returns the set with the RAT's flag added.
func (s RATSet) With(r RAT) RATSet { return s | maskOf(r) }

// Has reports whether the RAT's flag is set.
func (s RATSet) Has(r RAT) bool {
	m := maskOf(r)
	return m != 0 && s&m != 0
}

// Only reports whether the set contains exactly the given RAT — the
// form the paper's Fig. 9 buckets use ("2G only").
func (s RATSet) Only(r RAT) bool {
	m := maskOf(r)
	return m != 0 && s == m
}

// Empty reports whether no RAT flag is set.
func (s RATSet) Empty() bool { return s == 0 }

// String renders the set like "2G+4G", or "-" when empty.
func (s RATSet) String() string {
	if s == 0 {
		return "-"
	}
	out := ""
	for _, r := range []RAT{RAT2G, RAT3G, RAT4G, RATNB} {
		if s.Has(r) {
			if out != "" {
				out += "+"
			}
			out += r.String()
		}
	}
	return out
}

// Interface is a monitored radio-side interface. Which interface an
// event arrives on implies the RAT and the domain (circuit-switched
// voice vs packet-switched data).
type Interface uint8

// The monitored interfaces (red pins in the paper's Fig. 4), plus the
// NB-IoT flavour of S1 for the §8 extension.
const (
	IfUnknown Interface = iota
	IfA                 // 2G circuit switched (BSC–MSC)
	IfGb                // 2G packet switched (BSC–SGSN)
	IfIuCS              // 3G circuit switched (RNC–MSC)
	IfIuPS              // 3G packet switched (RNC–SGSN)
	IfS1                // 4G (eNodeB–MME); PS only
	IfNB                // NB-IoT (eNodeB–MME, NB carrier); PS only
)

var ifaceNames = [...]string{"unknown", "A", "Gb", "IuCS", "IuPS", "S1", "NB"}

func (i Interface) String() string {
	if int(i) < len(ifaceNames) {
		return ifaceNames[i]
	}
	return "iface(" + strconv.Itoa(int(i)) + ")"
}

// RAT returns the radio technology the interface belongs to.
func (i Interface) RAT() RAT {
	switch i {
	case IfA, IfGb:
		return RAT2G
	case IfIuCS, IfIuPS:
		return RAT3G
	case IfS1:
		return RAT4G
	case IfNB:
		return RATNB
	}
	return RATUnknown
}

// Domain is the service domain of a radio event.
type Domain uint8

// Domains: circuit-switched (voice/SMS) and packet-switched (data).
const (
	DomainUnknown Domain = iota
	DomainCS             // voice and SMS-like services
	DomainPS             // data
)

func (d Domain) String() string {
	switch d {
	case DomainCS:
		return "CS"
	case DomainPS:
		return "PS"
	}
	return "unknown"
}

// Domain returns the service domain the interface carries.
//
//roamvet:deadcode-ok paper data model (Fig. 4): the interface-to-domain map InterfaceFor inverts, and the oracle its tests check it against
func (i Interface) Domain() Domain {
	switch i {
	case IfA, IfIuCS:
		return DomainCS
	case IfGb, IfIuPS, IfS1, IfNB:
		return DomainPS
	}
	return DomainUnknown
}

// InterfaceFor returns the interface that carries the domain on the
// RAT. 4G has no CS domain (the simulated networks do not model
// CSFB); requesting it returns IfUnknown and false.
func InterfaceFor(r RAT, d Domain) (Interface, bool) {
	switch r {
	case RAT2G:
		if d == DomainCS {
			return IfA, true
		}
		return IfGb, true
	case RAT3G:
		if d == DomainCS {
			return IfIuCS, true
		}
		return IfIuPS, true
	case RAT4G:
		if d == DomainPS {
			return IfS1, true
		}
	case RATNB:
		if d == DomainPS {
			return IfNB, true
		}
	}
	return IfUnknown, false
}

// Result is the outcome of a radio event.
type Result uint8

// Radio event results.
const (
	ResultOK Result = iota
	ResultFail
)

func (r Result) String() string {
	if r == ResultOK {
		return "OK"
	}
	return "FAIL"
}

// SectorID identifies a radio sector (cell) within one operator.
type SectorID uint32

// Event is one radio-interface log record: a device requesting
// resources for data or voice on a sector (§4.1 "Radio interfaces").
type Event struct {
	Device    identity.DeviceID
	Time      time.Time
	SIM       mccmnc.PLMN // PLMN of the SIM's issuer
	TAC       identity.TAC
	Sector    SectorID
	Interface Interface
	Result    Result
}

// RAT returns the technology the event used.
func (e Event) RAT() RAT { return e.Interface.RAT() }

// String renders a compact single-line debug form.
func (e Event) String() string {
	return fmt.Sprintf("%s %s sim=%s tac=%s sector=%d if=%s %s",
		e.Time.UTC().Format(time.RFC3339), e.Device, e.SIM, e.TAC, e.Sector, e.Interface, e.Result)
}
