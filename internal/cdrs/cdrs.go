// Package cdrs implements Call Detail Records (voice) and eXtended
// Detail Records (data) as the paper's MNO dataset uses them (§4.1
// "Service usage"): per-activity records carrying the anonymized user
// ID, SIM and visited network codes, timestamp, duration and bytes,
// with APN strings on data records. Unlike radio logs, these records
// exist for outbound roamers too — they drive inter-operator revenue
// settlement (§2.1).
package cdrs

import (
	"fmt"
	"strconv"
	"time"

	"whereroam/internal/apn"
	"whereroam/internal/identity"
	"whereroam/internal/mccmnc"
	"whereroam/internal/radio"
)

// Kind distinguishes voice CDRs from data xDRs.
type Kind uint8

// Record kinds. Voice is used in the paper's broad sense: M2M devices
// do not place calls but use SMS-like CS services accounted the same
// way (§6.1 footnote).
const (
	KindVoice Kind = iota
	KindData
)

func (k Kind) String() string {
	if k == KindVoice {
		return "voice"
	}
	return "data"
}

// Record is one CDR/xDR.
type Record struct {
	Device   identity.DeviceID
	Time     time.Time
	SIM      mccmnc.PLMN
	Visited  mccmnc.PLMN
	Kind     Kind
	RAT      radio.RAT
	Duration time.Duration // voice: call duration; data: session duration
	Bytes    uint64        // data volume; zero for voice
	APN      apn.APN       // data records only; zero for voice
}

// String renders a compact single-line debug form.
func (r Record) String() string {
	base := fmt.Sprintf("%s %s %s->%s %s %s dur=%s",
		r.Time.UTC().Format(time.RFC3339), r.Device, r.SIM, r.Visited, r.RAT, r.Kind, r.Duration)
	if r.Kind == KindData {
		return base + " bytes=" + strconv.FormatUint(r.Bytes, 10) + " apn=" + r.APN.String()
	}
	return base
}
