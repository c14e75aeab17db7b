// Package experiments contains one runner per table and figure of the
// paper's evaluation. Each runner builds (or reuses) the scaled
// synthetic dataset it needs, executes the paper's analysis over the
// capture→catalog→classify pipeline, and emits both human-readable
// tables and a machine-checkable map of key values. The paper's shape
// criteria — who wins, by what factor, where the knees sit — are one
// table over those values, paperRows in this package's tests, checked
// at three seeds and two scales and rendered to EXPERIMENTS.md.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"whereroam/internal/analysis"
	"whereroam/internal/dataset"
	"whereroam/internal/gsma"
	"whereroam/internal/mccmnc"
)

// Report is the outcome of one experiment.
type Report struct {
	ID    string
	Title string
	// Paper summarizes what the paper reports for this artefact, so
	// the printed report shows paper-vs-measured side by side.
	Paper  string
	Tables []*analysis.Table
	// Values holds the headline numbers keyed by stable names; tests
	// and the report's values block read them.
	Values map[string]float64
	// Notes carries free-form observations.
	Notes []string
}

// Value returns a named value (0 when missing).
func (r *Report) Value(key string) float64 { return r.Values[key] }

func (r *Report) setValue(key string, v float64) {
	if r.Values == nil {
		r.Values = map[string]float64{}
	}
	r.Values[key] = v
}

// String renders the report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	if r.Paper != "" {
		fmt.Fprintf(&b, "paper: %s\n", r.Paper)
	}
	for _, t := range r.Tables {
		b.WriteByte('\n')
		b.WriteString(t.String())
	}
	if len(r.Values) > 0 {
		keys := make([]string, 0, len(r.Values))
		for k := range r.Values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteString("\nvalues:\n")
		for _, k := range keys {
			fmt.Fprintf(&b, "  %-32s %.4f\n", k, r.Values[k])
		}
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Session drives experiments over one shared cellular world observed
// from any number of visited-operator sites. It is the session layer
// of the repository: it builds each expensive synthetic dataset once
// and shares, between runners, a view of what they read of it (the
// MNO view alone feeds twelve experiments), and — when a fed-* runner
// asks — fans the shared GSMA catalog and global roamer fleet out to
// per-site capture pipelines (see Sites).
type Session struct {
	// Seed drives every generator.
	Seed uint64
	// Factor scales the default device counts (1.0 ≈ a tenth of
	// paper scale; tests use less, cmd/roamrepro -scale more).
	Factor float64
	// Workers bounds the pipeline worker pools of every generator
	// and analysis stage the session drives; values below one mean
	// one worker per CPU. Results are identical for every worker
	// count.
	Workers int
	// Hosts lists the federation's visited-MNO sites. Empty means the
	// default three-site footprint (dataset.DefaultFederationHosts)
	// when a fed-* runner or Sites() forces the federation plane; the
	// classic single-site datasets (MNO/M2M/SMIP) are independent of
	// it and always observe from the paper's UK operator.
	Hosts []mccmnc.PLMN

	mu       sync.Mutex
	m2m      *M2MView
	mnoView  *mnoView
	smipView *smipView
	fed      *dataset.FederationDataset
	fedM2M   *FederationM2MView
	fedSMIP  *dataset.FederationSMIP
	sites    []*Site
	// gsma pins the TAC catalog the MNO and SMIP datasets were built
	// on. gsma.Synthesize shares one catalog per seed only while
	// something references it, and the session keeps neither dataset,
	// so without the pin a later generator would rebuild it whenever a
	// collection ran in between.
	gsma *gsma.DB
}

// NewSessionWorkers returns a session with the given seed, scale
// factor and pipeline worker count (below one = one worker per CPU,
// one = serial). Set Hosts on it to choose the federation's sites.
func NewSessionWorkers(seed uint64, factor float64, workers int) *Session {
	if factor <= 0 {
		factor = 1
	}
	return &Session{Seed: seed, Factor: factor, Workers: workers}
}

func (s *Session) scaled(n int) int {
	v := int(float64(n) * s.Factor)
	if v < 100 {
		v = 100
	}
	return v
}

// M2M lazily folds the platform plane (dataset.FoldM2M) into the
// session's per-device aggregates. Each device's transactions reach
// the fold in time order — exactly its subsequence of the globally
// sorted dataset.GenerateM2M capture, the order the switch count
// needs — and the session holds none of them.
func (s *Session) M2M() *M2MView {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.m2m == nil {
		cfg := dataset.DefaultM2MConfig()
		cfg.Seed = s.Seed
		cfg.Devices = s.scaled(cfg.Devices)
		cfg.Workers = s.Workers
		s.m2m = newM2MView(cfg)
	}
	return s.m2m
}

// MNO generates the visited-MNO dataset and returns it fully
// materialized, Catalog.Records included. It generates on every call
// and the session does not keep the result: the first call also builds
// the session's view of it (the classified population and the outputs
// of every runner's record loop), which is all the runners read.
func (s *Session) MNO() *dataset.MNODataset {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.generateMNO()
}

// generateMNO is MNO with s.mu held.
func (s *Session) generateMNO() *dataset.MNODataset {
	cfg := dataset.DefaultMNOConfig()
	cfg.Seed = s.Seed
	cfg.Devices = s.scaled(cfg.Devices)
	cfg.Workers = s.Workers
	ds := dataset.GenerateMNO(cfg)
	s.gsma = ds.GSMA
	if s.mnoView == nil {
		s.mnoView = newMNOView(ds, s.Workers)
	}
	return ds
}

// SMIP generates the smart-meter dataset (the aggregate-level
// generator behind fig11) and returns it fully materialized. Like MNO,
// it generates on every call and the session does not keep the result:
// the first call also folds it into the session's per-device view.
func (s *Session) SMIP() *dataset.SMIPDataset {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.generateSMIP()
}

// generateSMIP is SMIP with s.mu held.
func (s *Session) generateSMIP() *dataset.SMIPDataset {
	cfg := dataset.DefaultSMIPConfig()
	cfg.Seed = s.Seed
	cfg.NativeMeters = s.scaled(cfg.NativeMeters)
	cfg.RoamingMeters = s.scaled(cfg.RoamingMeters)
	cfg.Workers = s.Workers
	ds := dataset.GenerateSMIP(cfg)
	s.gsma = ds.GSMA
	if s.smipView == nil {
		s.smipView = newSMIPView(ds)
	}
	return ds
}

// Runner is one registered experiment.
type Runner struct {
	ID    string
	Title string
	Run   func(*Session) *Report
}

var registry []Runner

// canonicalOrder presents experiments in the paper's order with the
// ablations last, regardless of file-init order.
var canonicalOrder = map[string]int{
	"t1": 0, "fig2": 1, "fig3l": 2, "fig3c": 3, "fig3r": 4,
	"t2": 5, "fig5": 6, "fig6": 7, "fig7": 8, "fig8": 9,
	"fig9": 10, "fig10": 11, "fig11": 12, "fig12": 13, "t3": 14,
	"abl-classifier": 15, "abl-gyration": 16, "abl-policy": 17,
	"ext-revenue": 18, "ext-transparency": 19, "ext-nbiot": 20, "ext-latency": 21,
	"fed-sites": 22, "fed-agreement": 23, "fed-validation": 24,
	"fed-smip": 25, "fed-m2m": 26, "fed-serve": 27,
}

func register(id, title string, run func(*Session) *Report) {
	registry = append(registry, Runner{ID: id, Title: title, Run: run})
}

// All returns the registered runners in paper order.
func All() []Runner {
	out := make([]Runner, len(registry))
	copy(out, registry)
	sort.SliceStable(out, func(i, j int) bool {
		oi, oki := canonicalOrder[out[i].ID]
		oj, okj := canonicalOrder[out[j].ID]
		if oki && okj {
			return oi < oj
		}
		if oki != okj {
			return oki // known ids first
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// ByID returns the runner with the given experiment id.
func ByID(id string) (Runner, bool) {
	for _, r := range registry {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}
