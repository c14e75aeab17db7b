// Package signaling models the control-plane transactions the paper's
// M2M dataset is built from (§3.1): mobility-management procedures
// between a device, a visited network and its home network, with a
// per-transaction result.
//
// A transaction is the paper's record schema verbatim: anonymized
// device ID, timestamp, SIM MCC-MNC, visited MCC-MNC, message type
// (authentication, update location, cancel location, ...) and a
// message result (OK, RoamingNotAllowed, UnknownSubscription, ...).
//
// The package also provides two codecs: a fixed-width binary wire
// format with a preallocated streaming decoder (the gopacket
// DecodingLayerParser idiom — decode into caller-owned memory, no
// allocation per record) and a write-only CSV form for interchange.
package signaling

import (
	"fmt"
	"strconv"
	"time"

	"whereroam/internal/identity"
	"whereroam/internal/mccmnc"
	"whereroam/internal/radio"
)

// Procedure is a mobility-management message type.
type Procedure uint8

// Procedures captured by the monitoring probes. The M2M platform
// probe sees Authentication/UpdateLocation/CancelLocation (§3.3); the
// MNO-side probe additionally sees Attach/Detach/RoutingAreaUpdate
// (§7.1).
const (
	ProcUnknown Procedure = iota
	ProcAuthentication
	ProcUpdateLocation
	ProcCancelLocation
	ProcAttach
	ProcDetach
	ProcRoutingAreaUpdate
)

var procNames = [...]string{
	"Unknown", "Authentication", "UpdateLocation", "CancelLocation",
	"Attach", "Detach", "RoutingAreaUpdate",
}

func (p Procedure) String() string {
	if int(p) < len(procNames) {
		return procNames[p]
	}
	return "proc(" + strconv.Itoa(int(p)) + ")"
}

// Result is the outcome reported for a transaction.
type Result uint8

// Results as the paper's datasets name them.
const (
	ResultOK Result = iota
	ResultRoamingNotAllowed
	ResultUnknownSubscription
	ResultFeatureUnsupported
	ResultNetworkFailure
	ResultCongestion
)

var resultNames = [...]string{
	"OK", "RoamingNotAllowed", "UnknownSubscription",
	"FeatureUnsupported", "NetworkFailure", "Congestion",
}

func (r Result) String() string {
	if int(r) < len(resultNames) {
		return resultNames[r]
	}
	return "result(" + strconv.Itoa(int(r)) + ")"
}

// OK reports whether the result indicates success.
func (r Result) OK() bool { return r == ResultOK }

// Transaction is one signaling record.
type Transaction struct {
	Device    identity.DeviceID
	Time      time.Time
	SIM       mccmnc.PLMN // home network of the SIM
	Visited   mccmnc.PLMN // network the device attempted to use
	Procedure Procedure
	Result    Result
	RAT       radio.RAT
}

// Roaming reports whether the transaction was generated while the
// device was outside its SIM's home country.
func (tx Transaction) Roaming() bool {
	return !mccmnc.SameCountry(tx.SIM, tx.Visited)
}

// String renders a compact single-line debug form.
func (tx Transaction) String() string {
	return fmt.Sprintf("%s %s %s->%s %s %s %s",
		tx.Time.UTC().Format(time.RFC3339), tx.Device, tx.SIM, tx.Visited,
		tx.RAT, tx.Procedure, tx.Result)
}
