package core

import (
	"whereroam/internal/identity"
	"whereroam/internal/mccmnc"
)

// Transparency models the GSMA IR.88-style disclosure the paper's
// introduction calls for: home networks publish the dedicated IMSI
// ranges (and APNs) their outbound M2M fleets use, so a visited
// operator can recognize an inbound roamer as M2M at attach time —
// when the real IMSI is still visible, before anonymization.
//
// Declarations therefore apply at capture time: the dataset
// generators check device IMSIs against a Registry and hand the
// classifier a per-device "declared" verdict; the classifier uses it
// as step 0, ahead of any APN evidence.

// Declaration is one home operator's published M2M transparency data.
type Declaration struct {
	Home mccmnc.PLMN
	// Ranges are the dedicated IMSI blocks of the operator's M2M
	// fleet.
	Ranges []identity.IMSIRange
}

// Registry is a set of declarations indexed for IMSI lookups.
type Registry struct {
	byHome map[mccmnc.PLMN][]identity.IMSIRange
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byHome: map[mccmnc.PLMN][]identity.IMSIRange{}}
}

// Add registers a declaration. Ranges accumulate per home operator.
func (r *Registry) Add(d Declaration) {
	r.byHome[d.Home] = append(r.byHome[d.Home], d.Ranges...)
}

// MatchIMSI reports whether the IMSI falls inside a declared M2M
// range.
func (r *Registry) MatchIMSI(im identity.IMSI) bool {
	for _, rng := range r.byHome[im.PLMN] {
		if rng.Contains(im) {
			return true
		}
	}
	return false
}

// Len returns the number of declaring operators.
func (r *Registry) Len() int { return len(r.byHome) }

// WithDeclarations returns a copy of the classifier that treats the
// per-device declared verdicts as step 0: a declared device is m2m
// before any APN or property evidence is consulted.
func (c *Classifier) WithDeclarations(declared map[identity.DeviceID]bool) *Classifier {
	clone := *c
	clone.declared = declared
	return &clone
}
