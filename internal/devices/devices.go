// Package devices defines the generator-side ground truth of the
// simulated populations: device classes (the IoT verticals and phone
// types the paper contrasts), per-device behaviour profiles, and the
// assembly of concrete devices (IMSI, IMEI, catalog identity).
//
// The package encodes *behaviour*, not *labels*: a smart meter here is
// a thing that reports a few kilobytes nightly over 2G with an energy
// APN, and whether the classifier in internal/core recognizes it as
// m2m is exactly the question the paper's §4.3/§7 evaluate.
package devices

import (
	"fmt"
	"strconv"

	"whereroam/internal/gsma"
	"whereroam/internal/identity"
	"whereroam/internal/mccmnc"
	"whereroam/internal/mobility"
)

// Class is the ground-truth vertical of a simulated device.
type Class uint8

// Ground-truth classes. The first two are the person-device classes;
// the rest are IoT verticals (the paper's m2m umbrella).
const (
	ClassSmartphone Class = iota
	ClassFeaturePhone
	ClassSmartMeter
	ClassConnectedCar
	ClassWearable
	ClassPOSTerminal
	ClassAssetTracker
	classCount
)

var classNames = [...]string{
	"smartphone", "featurephone", "smartmeter", "connectedcar",
	"wearable", "posterminal", "assettracker",
}

func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return "class(" + strconv.Itoa(int(c)) + ")"
}

// IsM2M reports whether the class belongs to the paper's m2m umbrella
// (everything that is not a personal phone).
func (c Class) IsM2M() bool {
	return c != ClassSmartphone && c != ClassFeaturePhone
}

// Device is one concrete simulated device.
type Device struct {
	ID       identity.DeviceID
	IMSI     identity.IMSI
	IMEI     identity.IMEI
	Info     gsma.DeviceInfo // catalog identity resolved via TAC
	Class    Class
	Profile  Profile
	Mobility mobility.Model
	// Home is the operator that provisioned the SIM.
	Home mccmnc.PLMN
	// MVNO marks SIMs of a virtual operator riding on the host MNO
	// (the V:H roaming label population).
	MVNO bool
}

// Assemble builds a Device from its parts, deriving the hashed ID and
// a plausible IMEI serial from the IMSI so that identity is stable.
func Assemble(class Class, imsi identity.IMSI, info gsma.DeviceInfo, prof Profile, mob mobility.Model, mvno bool) Device {
	return Device{
		ID:       identity.HashDevice(imsi),
		IMSI:     imsi,
		IMEI:     identity.IMEI{TAC: info.TAC, Serial: uint32(imsi.MSIN % 1_000_000)},
		Info:     info,
		Class:    class,
		Profile:  prof,
		Mobility: mob,
		Home:     imsi.PLMN,
		MVNO:     mvno,
	}
}

// Validate performs generator-side sanity checks and returns an error
// describing the first inconsistency.
//
//roamvet:deadcode-ok test oracle: the dataset tests hold every generated device to these invariants
func (d *Device) Validate() error {
	if d.ID != identity.HashDevice(d.IMSI) {
		return fmt.Errorf("devices: %v: ID does not match IMSI hash", d.ID)
	}
	if d.IMEI.TAC != d.Info.TAC {
		return fmt.Errorf("devices: %v: IMEI TAC %v != catalog TAC %v", d.ID, d.IMEI.TAC, d.Info.TAC)
	}
	if d.Profile.PresenceDays <= 0 {
		return fmt.Errorf("devices: %v: non-positive presence window", d.ID)
	}
	if !d.Profile.UsesData && !d.Profile.UsesVoice {
		return fmt.Errorf("devices: %v: device uses neither data nor voice", d.ID)
	}
	if d.Profile.UsesData && d.Profile.DataSessionsPerDay <= 0 {
		return fmt.Errorf("devices: %v: data user with no sessions", d.ID)
	}
	return nil
}
