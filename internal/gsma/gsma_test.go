package gsma

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"whereroam/internal/identity"
	"whereroam/internal/radio"
	"whereroam/internal/rng"
)

// testDB returns a fresh catalog, never Synthesize's shared one: the
// sampler-cache tests count the samplers a DB has built, which only
// means something on a DB no other test has drawn from.
func testDB(t testing.TB) *DB {
	t.Helper()
	return synthesize(1)
}

func TestCatalogScale(t *testing.T) {
	db := testDB(t)
	// The paper observes 2,436 vendors and 24,991 models; ours must
	// be of the same order.
	if v := len(db.vendors); v < 2200 || v > 2700 {
		t.Errorf("vendors = %d, want ~2400", v)
	}
	if m := len(db.byTAC); m < 22000 || m > 28000 {
		t.Errorf("models = %d, want ~25000", m)
	}
}

func TestSynthesizeDeterministic(t *testing.T) {
	a, b := synthesize(7), synthesize(7)
	if len(a.byTAC) != len(b.byTAC) || len(a.vendors) != len(b.vendors) {
		t.Fatal("same seed produced different catalogs")
	}
	for tac, di := range a.byTAC {
		if other, ok := b.byTAC[tac]; !ok || other != di {
			t.Fatalf("TAC %v differs between identical seeds", tac)
		}
	}
}

func TestSynthesizeSharesLiveCatalog(t *testing.T) {
	a := Synthesize(21)
	if b := Synthesize(21); b != a {
		t.Fatal("same seed built a second catalog while the first is referenced")
	}
	// Another seed takes the one memo entry.
	c := Synthesize(22)
	if c == a {
		t.Fatal("different seeds returned the same catalog")
	}
	if d := Synthesize(22); d != c {
		t.Fatal("the new seed's catalog is not shared")
	}
	if e := Synthesize(21); e == a {
		t.Fatal("seed 21 still memoized after seed 22 replaced it")
	}
	runtime.KeepAlive(a)
	runtime.KeepAlive(c)
}

func TestSynthesizeDoesNotPinCatalog(t *testing.T) {
	collected := make(chan struct{})
	func() {
		db := Synthesize(23)
		runtime.AddCleanup(db, func(ch chan struct{}) { close(ch) }, collected)
	}()
	for i := 0; ; i++ {
		runtime.GC()
		select {
		case <-collected:
			lastBuild.mu.Lock()
			v := lastBuild.db.Value()
			lastBuild.mu.Unlock()
			if v != nil {
				t.Fatal("memo still resolves to a collected catalog")
			}
			return
		case <-time.After(50 * time.Millisecond):
		}
		if i == 40 {
			t.Fatal("catalog still reachable after its last reference was dropped: the memo pins it")
		}
	}
}

// Datasets built on several goroutines call Synthesize together (run
// under -race): all of them must get the one catalog.
func TestSynthesizeConcurrentFirstCalls(t *testing.T) {
	const goroutines = 8
	got := make([]*DB, goroutines)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			got[g] = Synthesize(24)
		}()
	}
	close(start)
	wg.Wait()
	for g := range got {
		if got[g] != got[0] {
			t.Fatalf("goroutine %d got a different catalog", g)
		}
	}
}

func TestLookupRoundTrip(t *testing.T) {
	db := testDB(t)
	src := rng.New(2)
	for i := 0; i < 100; i++ {
		di := db.Pick(src, ArchM2MModule)
		got, ok := db.Lookup(di.TAC)
		if !ok || got != di {
			t.Fatalf("Lookup(%v) = %+v, %v", di.TAC, got, ok)
		}
	}
	if _, ok := db.Lookup(99999999); ok {
		t.Error("lookup of unallocated TAC succeeded")
	}
}

func TestM2MVendorConcentration(t *testing.T) {
	db := testDB(t)
	src := rng.New(3)
	const n = 20000
	counts := map[string]int{}
	for i := 0; i < n; i++ {
		counts[db.Pick(src, ArchM2MModule).Vendor]++
	}
	top3 := counts["Gemalto"] + counts["Telit"] + counts["Sierra Wireless"]
	share := float64(top3) / n
	// §4.3: the three big vendors are ~75% of inbound-roaming devices.
	if share < 0.70 || share > 0.80 {
		t.Errorf("Gemalto+Telit+Sierra share = %.3f, want ~0.75", share)
	}
	if counts["Gemalto"] <= counts["Telit"] {
		t.Errorf("Gemalto (%d) should outdraw Telit (%d)", counts["Gemalto"], counts["Telit"])
	}
}

func TestSmartphoneOS(t *testing.T) {
	db := testDB(t)
	src := rng.New(4)
	smart, total := 0, 5000
	for i := 0; i < total; i++ {
		di := db.Pick(src, ArchSmartphone)
		if di.OS.IsSmartphoneOS() {
			smart++
		}
	}
	if frac := float64(smart) / float64(total); frac < 0.99 {
		t.Errorf("smartphone OS share = %.3f, want ~1", frac)
	}
	// Feature phones must not carry a smartphone OS.
	for i := 0; i < 1000; i++ {
		di := db.Pick(src, ArchFeaturePhone)
		if di.OS.IsSmartphoneOS() {
			t.Fatalf("feature phone %q has smartphone OS %q", di.Model, di.OS)
		}
	}
}

func TestM2MLabelsAreAmbiguous(t *testing.T) {
	db := testDB(t)
	src := rng.New(5)
	labels := map[DeviceType]int{}
	for i := 0; i < 2000; i++ {
		labels[db.Pick(src, ArchM2MModule).Type]++
	}
	// §4.3: GSMA marks most non-phones as "modem" or "module" — no
	// M2M-specific label exists.
	if labels[TypeModule]+labels[TypeModem] < 1600 {
		t.Errorf("module+modem labels = %d/2000, want dominant", labels[TypeModule]+labels[TypeModem])
	}
	if labels[TypeSmartphone] != 0 {
		t.Error("an M2M module must never be labelled Smartphone")
	}
}

func TestPickFromVendors(t *testing.T) {
	db := testDB(t)
	src := rng.New(6)
	// The SMIP-roaming scenario: meters built exclusively on Gemalto
	// and Telit modules (§4.4).
	for i := 0; i < 500; i++ {
		di := db.PickFromVendors(src, ArchM2MModule, "Gemalto", "Telit")
		if di.Vendor != "Gemalto" && di.Vendor != "Telit" {
			t.Fatalf("vendor %q outside restriction", di.Vendor)
		}
	}
}

func TestPickFromVendorsPanicsOnUnknown(t *testing.T) {
	db := testDB(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown vendor")
		}
	}()
	db.PickFromVendors(rng.New(1), ArchM2MModule, "NoSuchVendor")
}

// pickFromVendorsRebuilding is PickFromVendors as it stood before the
// restricted sampler was cached: filter, weigh and build a CDF on
// every call.
func pickFromVendorsRebuilding(db *DB, src *rng.Source, a Archetype, vendors ...string) DeviceInfo {
	allowed := map[string]bool{}
	for _, v := range vendors {
		allowed[v] = true
	}
	var filtered []DeviceInfo
	var weights []float64
	for rank, di := range db.byArch[a] {
		if allowed[di.Vendor] {
			filtered = append(filtered, di)
			weights = append(weights, 1/float64(rank+1))
		}
	}
	return filtered[rng.NewWeighted(weights).DrawFrom(src)]
}

func TestPickFromVendorsMatchesRebuildingReference(t *testing.T) {
	db := testDB(t)
	sets := [][]string{{"Gemalto", "Telit"}, {"Sierra Wireless"}}
	got, want := rng.New(11), rng.New(11)
	// Interleave the sets so each call has to find its own sampler.
	for i := 0; i < 10000; i++ {
		vs := sets[i%len(sets)]
		g := db.PickFromVendors(got, ArchM2MModule, vs...)
		w := pickFromVendorsRebuilding(db, want, ArchM2MModule, vs...)
		if g != w {
			t.Fatalf("draw %d over %v: got %+v, reference %+v", i, vs, g, w)
		}
	}
	if got.Float64() != want.Float64() {
		t.Fatal("streams diverged: the cached sampler consumed a different number of draws")
	}
}

func TestPickFromVendorsIgnoresVendorOrder(t *testing.T) {
	db := testDB(t)
	a, b, c := rng.New(12), rng.New(12), rng.New(12)
	for i := 0; i < 2000; i++ {
		x := db.PickFromVendors(a, ArchM2MModule, "Gemalto", "Telit")
		y := db.PickFromVendors(b, ArchM2MModule, "Telit", "Gemalto")
		z := db.PickFromVendors(c, ArchM2MModule, "Telit", "Gemalto", "Telit")
		if x != y || x != z {
			t.Fatalf("draw %d depends on vendor listing: %+v / %+v / %+v", i, x, y, z)
		}
	}
	if n := len(db.restricted); n != 1 {
		t.Fatalf("%d samplers built for one vendor set", n)
	}
}

func TestPickFromVendorsAllocatesNothingWarm(t *testing.T) {
	db := testDB(t)
	src := rng.New(13)
	db.PickFromVendors(src, ArchM2MModule, "Gemalto", "Telit")
	allocs := testing.AllocsPerRun(1000, func() {
		db.PickFromVendors(src, ArchM2MModule, "Gemalto", "Telit")
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocations per warm call, want 0", allocs)
	}
}

// Emission shards hit a fresh DB's first PickFromVendors together
// (run under -race): every goroutine must see one sampler and the
// draws a serial caller would.
func TestPickFromVendorsConcurrentFirstUse(t *testing.T) {
	ref := testDB(t)
	const goroutines, draws = 8, 200
	want := make([][]DeviceInfo, goroutines)
	for g := range want {
		src := rng.New(uint64(100 + g))
		for i := 0; i < draws; i++ {
			want[g] = append(want[g], pickFromVendorsRebuilding(ref, src, ArchM2MModule, "Gemalto", "Telit"))
		}
	}

	db := testDB(t)
	got := make([][]DeviceInfo, goroutines)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			src := rng.New(uint64(100 + g))
			<-start
			for i := 0; i < draws; i++ {
				vs := []string{"Gemalto", "Telit"}
				if g%2 == 1 {
					vs[0], vs[1] = vs[1], vs[0]
				}
				got[g] = append(got[g], db.PickFromVendors(src, ArchM2MModule, vs...))
			}
		}()
	}
	close(start)
	wg.Wait()
	for g := range got {
		for i := range got[g] {
			if got[g][i] != want[g][i] {
				t.Fatalf("goroutine %d draw %d: got %+v, want %+v", g, i, got[g][i], want[g][i])
			}
		}
	}
	if n := len(db.restricted); n != 1 {
		t.Fatalf("%d samplers built for one vendor set", n)
	}
}

func TestM2MBandMix(t *testing.T) {
	db := testDB(t)
	src := rng.New(8)
	only2G, total := 0, 5000
	for i := 0; i < total; i++ {
		if db.Pick(src, ArchM2MModule).Bands.Only(radio.RAT2G) {
			only2G++
		}
	}
	// The installed base should be 2G-heavy (not exact: behaviour
	// profiles choose what devices do with their bands).
	if frac := float64(only2G) / float64(total); frac < 0.35 || frac > 0.70 {
		t.Errorf("2G-only module share = %.3f, want ~0.55", frac)
	}
}

func TestVehicleSegment(t *testing.T) {
	db := testDB(t)
	src := rng.New(9)
	multiRAT := 0
	for i := 0; i < 1000; i++ {
		di := db.Pick(src, ArchVehicle)
		if di.Bands.Has(radio.RAT4G) {
			multiRAT++
		}
	}
	if multiRAT < 700 {
		t.Errorf("4G-capable vehicles = %d/1000, want ~800", multiRAT)
	}
}

func TestDistinctTACBlocks(t *testing.T) {
	db := testDB(t)
	// Every TAC maps to exactly one archetype's block; verify no
	// overlap by re-deriving membership.
	for a := Archetype(0); a < archCount; a++ {
		for _, di := range db.byArch[a] {
			got, ok := db.Lookup(di.TAC)
			if !ok || got.Vendor != di.Vendor {
				t.Fatalf("TAC %v: block overlap or missing", di.TAC)
			}
		}
	}
}

// TestCatalogDigest pins the standard catalog byte for byte: per
// archetype, every model's row in popularity order and the pick
// weights synthSegment hands the sampler. The build replays
// synthesize's segment loop on a scratch DB, and its models must be
// the ones synthesize keeps.
func TestCatalogDigest(t *testing.T) {
	db := synthesize(1)
	src := rng.New(1).Split("gsma")
	scratch := &DB{byTAC: map[identity.TAC]DeviceInfo{}, vendors: map[string]bool{}}
	h := sha256.New()
	for _, seg := range standardSegments {
		models, weights := synthSegment(scratch, src.Split(seg.arch.String()), seg)
		if !reflect.DeepEqual(models, db.byArch[seg.arch]) {
			t.Fatalf("%v: the replayed segment differs from synthesize's", seg.arch)
		}
		fmt.Fprintf(h, "%v %d\n", seg.arch, len(models))
		for i, di := range models {
			fmt.Fprintf(h, "%v|%s|%s|%s|%v|%v|%x\n",
				di.TAC, di.Vendor, di.Model, di.OS, di.Type, di.Bands, math.Float64bits(weights[i]))
		}
	}
	const want = "fe7ce51930a9fc6fbdc8f42b8d5b4553180e16d2ba30f395514047de056bf7b1"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("gsma.catalog: digest %s, want %s", got, want)
	}
}

func BenchmarkSynthesize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = Synthesize(uint64(i))
	}
}

func BenchmarkPick(b *testing.B) {
	db := Synthesize(1)
	src := rng.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = db.Pick(src, ArchM2MModule)
	}
}
