// Package core implements the paper's primary methodological
// contribution: the roaming labels of §4.2 and the multi-step
// M2M/smartphone/feature-phone classifier of §4.3, together with the
// validation harness that measures both against simulator ground
// truth. Population is the §4 object the two produce together — one
// operator's devices-catalog joined per device with class and label —
// and Derive is the one place that builds it.
package core

import (
	"whereroam/internal/catalog"
	"whereroam/internal/mccmnc"
)

// SIMOrigin is the X part of a roaming label: whose SIM the device
// carries relative to the observing MNO.
type SIMOrigin byte

// SIM origins (§4.2).
const (
	SIMHome     SIMOrigin = 'H' // the MNO's own SIM
	SIMVirtual  SIMOrigin = 'V' // an MVNO riding the MNO
	SIMNational SIMOrigin = 'N' // another MNO of the same country
	SIMIntl     SIMOrigin = 'I' // a foreign MNO
)

// AttachSide is the Y part of a roaming label: where the device is
// attached relative to the observing MNO's country.
type AttachSide byte

// Attach sides (§4.2).
const (
	AttachHome   AttachSide = 'H' // attached in the MNO's country
	AttachAbroad AttachSide = 'A' // attached to a foreign network
)

// Label is a roaming label <X:Y>. Six combinations are meaningful:
// H:H (native), V:H (MVNO), N:H (national roamer), I:H (international
// inbound roamer), H:A and V:A (outbound roamers).
type Label struct {
	X SIMOrigin
	Y AttachSide
}

// The six roaming labels.
var (
	LabelHH = Label{SIMHome, AttachHome}
	LabelVH = Label{SIMVirtual, AttachHome}
	LabelNH = Label{SIMNational, AttachHome}
	LabelIH = Label{SIMIntl, AttachHome}
	LabelHA = Label{SIMHome, AttachAbroad}
	LabelVA = Label{SIMVirtual, AttachAbroad}
)

// AllLabels lists the six meaningful labels in presentation order.
var AllLabels = []Label{LabelHH, LabelVH, LabelNH, LabelIH, LabelHA, LabelVA}

// labelNames holds the String of each of AllLabels, in its order.
var labelNames = [...]string{"H:H", "V:H", "N:H", "I:H", "H:A", "V:A"}

// String renders the label as "X:Y", the six meaningful labels from
// a fixed table.
func (l Label) String() string {
	for i, k := range AllLabels {
		if k == l {
			return labelNames[i]
		}
	}
	return string(rune(l.X)) + ":" + string(rune(l.Y))
}

// InboundRoamer reports whether the label marks an international
// inbound roamer (I:H), the population the paper centres on.
func (l Label) InboundRoamer() bool { return l == LabelIH }

// Native reports whether the label marks the MNO's own subscriber at
// home (H:H).
func (l Label) Native() bool { return l == LabelHH }

// Labeler assigns roaming labels given the observing MNO and its
// MVNOs.
type Labeler struct {
	Host  mccmnc.PLMN
	MVNOs map[mccmnc.PLMN]bool
}

// NewLabeler builds a Labeler for host with the given virtual
// operators.
func NewLabeler(host mccmnc.PLMN, mvnos ...mccmnc.PLMN) *Labeler {
	m := make(map[mccmnc.PLMN]bool, len(mvnos))
	for _, p := range mvnos {
		m[p] = true
	}
	return &Labeler{Host: host, MVNOs: m}
}

// Label labels one (SIM, visited network) observation.
func (lb *Labeler) Label(sim, visited mccmnc.PLMN) Label {
	var l Label
	switch {
	case sim == lb.Host:
		l.X = SIMHome
	case lb.MVNOs[sim]:
		l.X = SIMVirtual
	case mccmnc.SameCountry(sim, lb.Host):
		l.X = SIMNational
	default:
		l.X = SIMIntl
	}
	if mccmnc.SameCountry(visited, lb.Host) {
		l.Y = AttachHome
	} else {
		l.Y = AttachAbroad
	}
	return l
}

// LabelRecord labels a devices-catalog daily record. Days with both
// home-side and abroad activity label as home (radio presence on the
// host wins over settlement records from abroad).
func (lb *Labeler) LabelRecord(r *catalog.DailyRecord) Label {
	best := Label{}
	for _, v := range r.Visited {
		l := lb.Label(r.SIM, v)
		if l.Y == AttachHome {
			return l
		}
		best = l
	}
	if best == (Label{}) {
		// No visited networks recorded: assume host-side observation.
		return lb.Label(r.SIM, lb.Host)
	}
	return best
}

// LabelSummary labels a device summary with its dominant label: the
// home-side label if the device was ever seen on the host's country,
// otherwise the abroad label (a device only abroad all window).
func (lb *Labeler) LabelSummary(s *catalog.Summary) Label {
	sawHome := false
	for _, v := range s.Visited {
		if mccmnc.SameCountry(v, lb.Host) {
			sawHome = true
			break
		}
	}
	if sawHome || len(s.Visited) == 0 {
		return lb.Label(s.SIM, lb.Host)
	}
	return lb.Label(s.SIM, s.Visited[0])
}
