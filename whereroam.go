// Package whereroam reproduces the measurement system of "Where
// Things Roam: Uncovering Cellular IoT/M2M Connectivity" (IMC 2020):
// the roaming-label and M2M-classification pipeline a visited mobile
// operator runs over its devices-catalog, the passive-measurement
// substrate that builds the catalog, and — because the paper's
// operator datasets are NDA-bound — a deterministic cellular roaming
// simulator that regenerates both datasets at configurable scale.
//
// The package is a facade over the internal packages, cut to exactly
// the names a binary under examples/ or cmd/ compiles against (roamvet's
// deadcode check reports any other). Everything else — generators,
// the archive store, the query server — is reached through the internal
// packages directly; docs/ARCHITECTURE.md maps them.
//
//	sess := whereroam.NewSession(1, 1.0)
//	mno := sess.MNO()
//	labeler := whereroam.NewLabeler(mno.Host, mno.MVNOs()...)
//	pop := whereroam.DerivePopulation(mno.Catalog, mno.GSMA, labeler, 0)
//	// pop.Results[i] and pop.Labels[i] describe pop.Sums[i]
//
// The experiment runners regenerate every table and figure of the
// paper's evaluation; see cmd/roamrepro (-list names them, -experiment
// all prints every report with the paper's figure beside the measured
// one).
package whereroam

import (
	"whereroam/internal/analysis"
	"whereroam/internal/catalog"
	"whereroam/internal/core"
	"whereroam/internal/dataset"
	"whereroam/internal/devices"
	"whereroam/internal/experiments"
	"whereroam/internal/gsma"
	"whereroam/internal/identity"
	"whereroam/internal/mccmnc"
)

type (
	// PLMN identifies a mobile network (MCC + MNC).
	PLMN = mccmnc.PLMN
	// DeviceID is the one-way-hashed device identifier used in traces.
	DeviceID = identity.DeviceID
	// Label is a roaming label <X:Y> (§4.2).
	Label = core.Label
	// SMIPDataset is the smart-meter dataset (§7).
	SMIPDataset = dataset.SMIPDataset
	// Session shares datasets between experiment runners: one world
	// observed from one visited-operator site (NewSession) or several
	// (NewFederation).
	Session = experiments.Session
	// Report is an experiment outcome.
	Report = experiments.Report
)

// NewSession returns an experiment session at the given seed and
// scale factor (1.0 ≈ one tenth of paper scale). Pipelines run with
// one worker per CPU; results are identical for every worker count.
func NewSession(seed uint64, factor float64) *Session {
	return experiments.NewSessionWorkers(seed, factor, 0)
}

// NewFederation returns a multi-site session: one shared GSMA
// catalog, operator world and global roamer fleet, observed
// independently by every visited MNO in hosts (none = the default
// three-site footprint). Every classic runner works on it unchanged;
// the fed-* runners and Sites() expose the cross-site views.
func NewFederation(seed uint64, factor float64, workers int, hosts ...PLMN) *Session {
	s := experiments.NewSessionWorkers(seed, factor, workers)
	s.Hosts = hosts
	return s
}

// ExperimentByID returns one table/figure runner ("t1", "fig2", ...,
// "abl-policy"); cmd/roamrepro -list names them all.
func ExperimentByID(id string) (experiments.Runner, bool) { return experiments.ByID(id) }

// NewLabeler returns a roaming labeler for the host MNO and its MVNOs.
func NewLabeler(host PLMN, mvnos ...PLMN) *core.Labeler { return core.NewLabeler(host, mvnos...) }

// DerivePopulation summarizes a catalog per device (joining db; nil =
// no GSMA join) and attaches the standard classifier's verdict and
// labeler's roaming label to every device. workers below one = one
// worker per CPU; the result is identical at any worker count.
func DerivePopulation(cat *catalog.Catalog, db *gsma.DB, labeler *core.Labeler, workers int) *core.Population {
	return core.Derive(cat, db, labeler, workers)
}

// Validate compares classification results against simulator ground
// truth.
func Validate(results []core.Result, truth map[DeviceID]devices.Class) (*core.Validation, error) {
	return core.Validate(results, truth)
}

// Breakdown counts classification results per class.
func Breakdown(results []core.Result) map[core.Class]int { return core.Breakdown(results) }

// DefaultM2MConfig is the paper-shaped §3 platform dataset
// configuration.
func DefaultM2MConfig() dataset.M2MConfig { return dataset.DefaultM2MConfig() }

// GenerateM2M synthesizes the §3 platform signaling dataset.
func GenerateM2M(cfg dataset.M2MConfig) *dataset.M2MDataset { return dataset.GenerateM2M(cfg) }

// NewECDF builds an empirical CDF from samples.
func NewECDF(samples []float64) *analysis.ECDF { return analysis.NewECDF(samples) }
