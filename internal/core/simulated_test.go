package core_test

import (
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"whereroam/internal/apn"
	"whereroam/internal/catalog"
	"whereroam/internal/cdrs"
	"whereroam/internal/core"
	"whereroam/internal/dataset"
	"whereroam/internal/identity"
	"whereroam/internal/mccmnc"
	"whereroam/internal/rng"
	"whereroam/internal/store"
)

// These tests live outside package core because they drive the
// simulator (internal/dataset imports core for the transparency
// registry, so an in-package import would cycle).

func TestValidateOnSimulatedPopulation(t *testing.T) {
	cfg := dataset.DefaultMNOConfig()
	cfg.Devices = 6000
	ds := dataset.GenerateMNO(cfg)
	sums := ds.Catalog.SummariesWorkers(ds.GSMA, 0)
	res := core.NewClassifier().ClassifyWorkers(sums, 0)
	v, err := core.Validate(res, ds.Truth)
	if err != nil {
		t.Fatal(err)
	}
	if v.Total != len(sums) {
		t.Fatalf("validated %d of %d", v.Total, len(sums))
	}
	// The classifier must be strong on the simulated population: the
	// paper ships it as the practical answer to inbound-roamer
	// triage.
	if acc := v.Accuracy(); acc < 0.93 {
		t.Errorf("accuracy = %.3f, want >= 0.93\n%s", acc, v)
	}
	if p := v.Precision(core.ClassM2M); p < 0.90 {
		t.Errorf("m2m precision = %.3f\n%s", p, v)
	}
	if r := v.Recall(core.ClassM2M); r < 0.75 {
		t.Errorf("m2m recall = %.3f\n%s", r, v)
	}
	if r := v.Recall(core.ClassSmart); r < 0.90 {
		t.Errorf("smart recall = %.3f\n%s", r, v)
	}
}

// Derive is the only production spelling of summaries → classifier →
// label; the hand-written chain below is the reference it must equal,
// and the alignment/order/Find invariants are what every holder of a
// Population reads positions by.
func TestDerivePopulation(t *testing.T) {
	cfg := dataset.DefaultMNOConfig()
	cfg.Devices = 1500
	ds := dataset.GenerateMNO(cfg)
	labeler := core.NewLabeler(ds.Host, dataset.MVNO1, dataset.MVNO2)

	pop := core.Derive(ds.Catalog, ds.GSMA, labeler, 1)
	for _, workers := range []int{2, runtime.GOMAXPROCS(0)} {
		if got := core.Derive(ds.Catalog, ds.GSMA, labeler, workers); !reflect.DeepEqual(pop, got) {
			t.Fatalf("workers=%d: population differs from the serial derive", workers)
		}
	}

	wantSums := ds.Catalog.SummariesWorkers(ds.GSMA, 1)
	want := &core.Population{
		Sums:    wantSums,
		Results: core.NewClassifier().ClassifyWorkers(wantSums, 1),
		Labels:  make([]core.Label, len(wantSums)),
	}
	for i := range wantSums {
		want.Labels[i] = labeler.LabelSummary(&wantSums[i])
	}
	if !reflect.DeepEqual(pop, want) {
		t.Fatal("Derive differs from the hand-written summaries → classify → label chain")
	}

	if len(pop.Sums) == 0 || len(pop.Results) != len(pop.Sums) || len(pop.Labels) != len(pop.Sums) {
		t.Fatalf("lengths sums/results/labels = %d/%d/%d", len(pop.Sums), len(pop.Results), len(pop.Labels))
	}
	for i := range pop.Sums {
		dev := pop.Sums[i].Device
		if pop.Results[i].Device != dev {
			t.Fatalf("Results[%d] is device %v, Sums[%d] is %v", i, pop.Results[i].Device, i, dev)
		}
		if i > 0 && pop.Sums[i-1].Device >= dev {
			t.Fatalf("Sums not strictly ascending at %d", i)
		}
		if j, ok := pop.Find(dev); !ok || j != i {
			t.Fatalf("Find(%v) = %d, %v; want %d, true", dev, j, ok, i)
		}
	}
	// Absent devices: below the first, above the last, and between two
	// neighbours that leave a gap.
	absent := []identity.DeviceID{pop.Sums[0].Device - 1, pop.Sums[len(pop.Sums)-1].Device + 1}
	for i := 1; i < len(pop.Sums); i++ {
		if d := pop.Sums[i-1].Device + 1; d != pop.Sums[i].Device {
			absent = append(absent, d)
			break
		}
	}
	for _, dev := range absent {
		if _, ok := pop.Find(dev); ok {
			t.Errorf("Find(%v) hit a device the population does not hold", dev)
		}
	}
	if _, ok := (&core.Population{}).Find(1); ok {
		t.Error("Find on an empty population reported a hit")
	}
}

// anyKeyword is the reference the keyword tables must agree with: the
// rule of apn.APN.ContainsKeyword written over a collected slice of
// EachKeyword's tokens and a padded strings.Contains, as the matcher
// was before it walked the APN in place. Every keyword re-tokenises
// the APN.
func anyKeyword(a apn.APN, keywords []string) bool {
	for _, kw := range keywords {
		if strings.Contains(kw, ".") {
			if strings.Contains("."+a.NetworkID+".", "."+kw+".") {
				return true
			}
			continue
		}
		var toks []string
		a.EachKeyword(func(tok string) bool {
			toks = append(toks, tok)
			return true
		})
		if slices.Contains(toks, kw) {
			return true
		}
	}
	return false
}

// keywordCorners are Network Identifiers at the corners of the token
// grammar, for the table-against-reference tests.
var keywordCorners = []string{
	"intelligent.m2m",                 // dotted keyword, whole NI
	"x.intelligent.m2m.y",             // dotted keyword inside
	"intelligent.m2mx",                // dotted keyword as a mere prefix
	"notintelligent.m2m",              // dotted keyword must start at a label
	"intelligent.m2m.intelligent.m2m", // a second occurrence
	"fleet-tracker_pos.corp",          // hyphen and underscore split tokens
	"fleet-", "_pos", "a--b",          // empty fields between separators
	"a..b", ".lead", "trail.", "..", // empty labels
	"m2m.de", "iot.m2", // a 2-char label is dropped, a 3-char one kept
	"pos.com", "com.net.www", // generic tails are not tokens
	"internet", "wap.payment", // consumer table, and both tables at once
	"smartgridx", "xsmhp", // tokens match whole, never as substrings
	"smärt-grid.ü", "\xff\xfe-pos", "télématique_m2m", // non-ASCII and invalid UTF-8
	"",
}

// The tokenise-once keyword tables, which walk an APN in place, give
// the verdict of the keyword-by-keyword loop on every APN a generated
// federation archive holds and a seed-1 MNO dataset at its default
// size carries, and on the corners of the token grammar — and
// allocate nothing doing it.
func TestKeywordTablesMatchKeywordLoop(t *testing.T) {
	cfg := dataset.DefaultFederationConfig()
	cfg.Seed = 1
	cfg.FleetDevices, cfg.NativePerSite, cfg.Days = 150, 80, 5
	cfg.ArchiveDir = t.TempDir()
	dataset.GenerateFederation(cfg)
	sites, err := store.SiteDirs(cfg.ArchiveDir)
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[apn.APN]bool{}
	for _, site := range sites {
		r, err := store.Open(store.SiteDir(cfg.ArchiveDir, site))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := r.ReplayRecords(store.Query{}, func(rec cdrs.Record) {
			if rec.Kind == cdrs.KindData {
				distinct[rec.APN] = true
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	if len(distinct) < 20 {
		t.Fatalf("archive holds only %d distinct APNs", len(distinct))
	}
	archived := len(distinct)
	dataset.StreamMNO(dataset.DefaultMNOConfig(), dataset.MNOSink{Record: func(rec catalog.DailyRecord) {
		for _, a := range rec.APNs {
			distinct[a] = true
		}
	}})
	if len(distinct) < archived+20 {
		t.Fatalf("the MNO dataset adds only %d distinct APNs", len(distinct)-archived)
	}
	for _, ni := range keywordCorners {
		distinct[apn.APN{NetworkID: ni}] = true
		distinct[apn.APN{NetworkID: ni, Operator: mccmnc.MustParse("20404")}] = true
	}
	c := core.NewClassifier()
	for a := range distinct {
		m2m, consumer := c.MatchKeywords(a)
		if want := anyKeyword(a, core.DefaultM2MKeywords); m2m != want {
			t.Errorf("%q: m2m table says %v, keyword loop %v", a, m2m, want)
		}
		if want := anyKeyword(a, core.DefaultConsumerKeywords); consumer != want {
			t.Errorf("%q: consumer table says %v, keyword loop %v", a, consumer, want)
		}
		if allocs := testing.AllocsPerRun(10, func() { c.MatchKeywords(a) }); allocs != 0 {
			t.Fatalf("%q: %.1f allocations per match, want 0", a, allocs)
		}
	}
}

// Step 1's memo changes nothing a caller can see: the validated set is
// the keyword loop's, and classification does not depend on the worker
// count a caller passes.
func TestValidatedAPNsAndWorkerInvariance(t *testing.T) {
	cfg := dataset.DefaultMNOConfig()
	cfg.Devices = 3000
	ds := dataset.GenerateMNO(cfg)
	sums := ds.Catalog.SummariesWorkers(ds.GSMA, 0)
	c := core.NewClassifier()

	set := map[apn.APN]bool{}
	for i := range sums {
		for _, a := range sums[i].APNs {
			if anyKeyword(a, core.DefaultM2MKeywords) {
				set[a] = true
			}
		}
	}
	got := c.ValidatedAPNs(sums)
	if len(got) == 0 || len(got) != len(set) {
		t.Fatalf("ValidatedAPNs returned %d APNs, the keyword loop validates %d", len(got), len(set))
	}
	for i, a := range got {
		if !set[a] {
			t.Errorf("ValidatedAPNs holds %q, which the keyword loop rejects", a)
		}
		if i > 0 && got[i-1].String() >= a.String() {
			t.Errorf("ValidatedAPNs not strictly sorted at %d", i)
		}
	}
	if one, four := c.ClassifyWorkers(sums, 1), c.ClassifyWorkers(sums, 4); !reflect.DeepEqual(one, four) {
		t.Fatal("classification differs between 1 and 4 workers")
	}
}

func TestClassSharesMatchPaper(t *testing.T) {
	// §4.3: smart 62%, feat 8%, m2m 26%, m2m-maybe 4%.
	cfg := dataset.DefaultMNOConfig()
	cfg.Devices = 8000
	ds := dataset.GenerateMNO(cfg)
	sums := ds.Catalog.SummariesWorkers(ds.GSMA, 0)
	res := core.NewClassifier().ClassifyWorkers(sums, 0)
	b := core.Breakdown(res)
	n := float64(len(res))
	check := func(c core.Class, want, tol float64) {
		got := float64(b[c]) / n
		if got < want-tol || got > want+tol {
			t.Errorf("%v share = %.3f, want %.2f±%.2f", c, got, want, tol)
		}
	}
	check(core.ClassSmart, 0.62, 0.05)
	check(core.ClassFeat, 0.08, 0.04)
	check(core.ClassM2M, 0.26, 0.06)
	check(core.ClassM2MMaybe, 0.04, 0.04)
}

func TestTransparencyImprovesRecall(t *testing.T) {
	// §1/§8: with IR.88 declarations the visited operator recognizes
	// declared fleets without any traffic evidence. Recall with
	// declarations must be at least as good as without, and declared
	// devices must all be truly m2m (the home operator knows its own
	// fleet).
	cfg := dataset.DefaultMNOConfig()
	cfg.Devices = 6000
	cfg.TransparencyAdoption = 0.6
	ds := dataset.GenerateMNO(cfg)
	if ds.Transparency.Len() == 0 {
		t.Fatal("no home operator adopted transparency")
	}
	for id := range ds.Declared {
		if !ds.Truth[id].IsM2M() {
			t.Fatalf("declared device %v is not m2m ground truth", id)
		}
	}
	sums := ds.Catalog.SummariesWorkers(ds.GSMA, 0)
	plain := core.NewClassifier()
	resPlain := plain.ClassifyWorkers(sums, 0)
	withDecl := plain.WithDeclarations(ds.Declared)
	resDecl := withDecl.ClassifyWorkers(sums, 0)

	vPlain, err := core.Validate(resPlain, ds.Truth)
	if err != nil {
		t.Fatal(err)
	}
	vDecl, err := core.Validate(resDecl, ds.Truth)
	if err != nil {
		t.Fatal(err)
	}
	if vDecl.Recall(core.ClassM2M) < vPlain.Recall(core.ClassM2M) {
		t.Errorf("declarations reduced m2m recall: %.3f -> %.3f",
			vPlain.Recall(core.ClassM2M), vDecl.Recall(core.ClassM2M))
	}
	if vDecl.Precision(core.ClassM2M) < 0.95 {
		t.Errorf("m2m precision with declarations = %.3f", vDecl.Precision(core.ClassM2M))
	}
	// Evidence audit: some devices must be decided by the declaration
	// alone.
	declaredEvidence := 0
	for _, r := range resDecl {
		if r.Evidence == "ir88-declared" {
			declaredEvidence++
		}
	}
	if declaredEvidence == 0 {
		t.Error("no device was classified by declaration evidence")
	}
}

func TestTransparencyDisabled(t *testing.T) {
	cfg := dataset.DefaultMNOConfig()
	cfg.Devices = 1000
	cfg.TransparencyAdoption = 0
	ds := dataset.GenerateMNO(cfg)
	if ds.Transparency.Len() != 0 || len(ds.Declared) != 0 {
		t.Error("transparency should be empty when adoption is 0")
	}
}

// Population monotonicity: a device that is m2m under Derive of a
// sub-catalog is m2m in every super-catalog, because the validated-APN
// and TAC sets its verdict rests on only gain members as devices join.
// Each rng seed keeps device d in the links of a nested chain whose
// share exceeds rng.Hash01(seed, d), and derives every link.
func TestM2MMonotoneInPopulation(t *testing.T) {
	cfg := dataset.DefaultMNOConfig()
	cfg.Devices = 1500
	ds := dataset.GenerateMNO(cfg)
	labeler := core.NewLabeler(ds.Host, dataset.MVNO1, dataset.MVNO2)
	derive := func(keep func(identity.DeviceID) bool) *core.Population {
		sub := &catalog.Catalog{Host: ds.Catalog.Host, Days: ds.Catalog.Days}
		for _, r := range ds.Catalog.Records {
			if keep(r.Device) {
				sub.Records = append(sub.Records, r)
			}
		}
		return core.Derive(sub, ds.GSMA, labeler, 0)
	}
	for seed := uint64(1); seed <= 8; seed++ {
		prev := &core.Population{}
		for _, share := range []float64{0.02, 0.1, 0.3, 1} {
			pop := derive(func(d identity.DeviceID) bool { return rng.Hash01(seed, uint64(d)) < share })
			for i, r := range prev.Results {
				if r.Class != core.ClassM2M {
					continue
				}
				if j, ok := pop.Find(r.Device); !ok || pop.Results[j].Class != core.ClassM2M {
					t.Errorf("seed %d: device %v is m2m (%s) among %d devices but not among %d",
						seed, r.Device, prev.Results[i].Evidence, len(prev.Sums), len(pop.Sums))
				}
			}
			prev = pop
		}
	}
}

// Relabelling: a bijective rename of the foreign PLMNs within their
// MCC, applied to every record's SIM and Visited, changes no label
// count and no class count, and permutes the per-home device counts by
// the rename. Labels read only whether a network is the host, one of
// its MVNOs or in its country, and the classifier reads no network at
// all, so no verdict may depend on which foreign operator a device
// belongs to.
func TestRelabelForeignPLMNsPermutesCounts(t *testing.T) {
	cfg := dataset.DefaultMNOConfig()
	cfg.Devices = 1500
	ds := dataset.GenerateMNO(cfg)
	labeler := core.NewLabeler(ds.Host, dataset.MVNO1, dataset.MVNO2)
	// rename rotates a foreign PLMN's MNC within its MCC and width: a
	// bijection that keeps the country and leaves the host's country
	// alone.
	rename := func(p mccmnc.PLMN) mccmnc.PLMN {
		if mccmnc.SameCountry(p, ds.Host) {
			return p
		}
		mod := uint16(100)
		if p.MNCLen == 3 {
			mod = 1000
		}
		p.MNC = (p.MNC + 37) % mod
		return p
	}
	renamed := &catalog.Catalog{Host: ds.Catalog.Host, Days: ds.Catalog.Days, Records: slices.Clone(ds.Catalog.Records)}
	moved := 0
	for i := range renamed.Records {
		r := &renamed.Records[i]
		if r.SIM != rename(r.SIM) {
			moved++
		}
		r.SIM = rename(r.SIM)
		r.Visited = slices.Clone(r.Visited)
		for j := range r.Visited {
			r.Visited[j] = rename(r.Visited[j])
		}
	}
	if moved == 0 {
		t.Fatal("the rename moved no record's SIM: nothing to test")
	}

	// Device labels rarely show the abroad side (a device seen at home
	// once labels as home), so the daily records' labels count too.
	type counts struct {
		labels, dayLabels map[core.Label]int
		classes           map[core.Class]int
		homes             map[mccmnc.PLMN]int
	}
	count := func(cat *catalog.Catalog) counts {
		pop := core.Derive(cat, ds.GSMA, labeler, 0)
		c := counts{map[core.Label]int{}, map[core.Label]int{}, map[core.Class]int{}, map[mccmnc.PLMN]int{}}
		for i := range pop.Sums {
			c.labels[pop.Labels[i]]++
			c.classes[pop.Results[i].Class]++
			c.homes[pop.Sums[i].SIM]++
		}
		for i := range cat.Records {
			c.dayLabels[labeler.LabelRecord(&cat.Records[i])]++
		}
		return c
	}
	before, after := count(ds.Catalog), count(renamed)
	if !reflect.DeepEqual(before.labels, after.labels) {
		t.Errorf("label counts moved under the rename: %v, then %v", before.labels, after.labels)
	}
	if !reflect.DeepEqual(before.dayLabels, after.dayLabels) {
		t.Errorf("daily label counts moved under the rename: %v, then %v", before.dayLabels, after.dayLabels)
	}
	if !reflect.DeepEqual(before.classes, after.classes) {
		t.Errorf("class counts moved under the rename: %v, then %v", before.classes, after.classes)
	}
	permuted := map[mccmnc.PLMN]int{}
	for home, n := range before.homes {
		permuted[rename(home)] = n
	}
	if !reflect.DeepEqual(permuted, after.homes) {
		t.Errorf("per-home counts are not the rename's permutation: renamed %v, got %v", permuted, after.homes)
	}
}

func BenchmarkClassify(b *testing.B) {
	cfg := dataset.DefaultMNOConfig()
	cfg.Devices = 4000
	ds := dataset.GenerateMNO(cfg)
	sums := ds.Catalog.SummariesWorkers(ds.GSMA, 0)
	c := core.NewClassifier()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = c.ClassifyWorkers(sums, 0)
	}
}
