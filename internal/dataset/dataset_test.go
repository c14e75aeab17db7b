package dataset

import (
	"bytes"
	"encoding/csv"
	"io"
	"math"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"whereroam/internal/devices"
	"whereroam/internal/identity"
	"whereroam/internal/mccmnc"
	"whereroam/internal/signaling"
	"whereroam/internal/store"
)

// Small configs keep unit tests fast; experiment-level shape checks
// run at larger scale in internal/experiments.
func smallM2M() M2MConfig {
	cfg := DefaultM2MConfig()
	cfg.Devices = 1500
	return cfg
}

func smallMNO() MNOConfig {
	cfg := DefaultMNOConfig()
	cfg.Devices = 4000
	return cfg
}

func smallSMIP() SMIPConfig {
	cfg := DefaultSMIPConfig()
	cfg.NativeMeters = 1500
	cfg.RoamingMeters = 1000
	return cfg
}

func TestGenerateM2MDeterministic(t *testing.T) {
	a := GenerateM2M(smallM2M())
	b := GenerateM2M(smallM2M())
	if len(a.Transactions) != len(b.Transactions) {
		t.Fatalf("tx counts differ: %d vs %d", len(a.Transactions), len(b.Transactions))
	}
	for i := range a.Transactions {
		x, y := a.Transactions[i], b.Transactions[i]
		if x.Device != y.Device || !x.Time.Equal(y.Time) || x.Procedure != y.Procedure {
			t.Fatalf("tx %d differs", i)
		}
	}
}

func TestGenerateM2MShape(t *testing.T) {
	ds := GenerateM2M(smallM2M())
	if len(ds.Truth) != 1500 {
		t.Fatalf("devices = %d", len(ds.Truth))
	}
	// Transactions are time-sorted and inside the window.
	end := ds.Start.AddDate(0, 0, ds.Days)
	for i := range ds.Transactions {
		tx := &ds.Transactions[i]
		if i > 0 && tx.Time.Before(ds.Transactions[i-1].Time) {
			t.Fatal("transactions not time-sorted")
		}
		if tx.Time.Before(ds.Start) || !tx.Time.Before(end.Add(3e9)) {
			t.Fatalf("tx outside window: %v", tx.Time)
		}
	}
	// HMNO shares (§3.2).
	byHome := map[mccmnc.PLMN]int{}
	roamers := 0
	for _, truth := range ds.Truth {
		byHome[truth.Home]++
		if truth.Roaming {
			roamers++
		}
	}
	es := float64(byHome[mccmnc.MustParse("21407")]) / float64(len(ds.Truth))
	mx := float64(byHome[mccmnc.MustParse("334020")]) / float64(len(ds.Truth))
	if math.Abs(es-0.523) > 0.04 {
		t.Errorf("ES share = %.3f, want ~0.523", es)
	}
	if math.Abs(mx-0.422) > 0.04 {
		t.Errorf("MX share = %.3f, want ~0.422", mx)
	}
	// Every truth device with roaming=true must have roaming
	// transactions; spot-check consistency.
	for i := range ds.Transactions {
		tx := &ds.Transactions[i]
		truth, ok := ds.Truth[tx.Device]
		if !ok {
			t.Fatal("transaction from unknown device")
		}
		if !truth.Roaming && tx.Roaming() {
			t.Fatalf("native device %v produced roaming tx to %v", tx.Device, tx.Visited)
		}
	}
}

func TestGenerateM2MESSignalingDominance(t *testing.T) {
	// §3.2: ES devices produce ~81.8% of all signaling, and >90% of
	// ES signaling happens while roaming.
	ds := GenerateM2M(smallM2M())
	es := mccmnc.MustParse("21407")
	total, fromES, esRoaming := 0, 0, 0
	for i := range ds.Transactions {
		tx := &ds.Transactions[i]
		total++
		if tx.SIM == es {
			fromES++
			if tx.Roaming() {
				esRoaming++
			}
		}
	}
	esShare := float64(fromES) / float64(total)
	if esShare < 0.70 || esShare > 0.92 {
		t.Errorf("ES signaling share = %.3f, want ~0.82", esShare)
	}
	roamShare := float64(esRoaming) / float64(fromES)
	if roamShare < 0.85 {
		t.Errorf("ES roaming-signaling share = %.3f, want >= 0.9", roamShare)
	}
}

func TestGenerateM2MSampling(t *testing.T) {
	full := GenerateM2M(smallM2M())
	cfg := smallM2M()
	cfg.SampleRate = 0.5
	half := GenerateM2M(cfg)
	ratio := float64(len(half.Transactions)) / float64(len(full.Transactions))
	if math.Abs(ratio-0.5) > 0.05 {
		t.Errorf("sampled/full = %.3f, want ~0.5", ratio)
	}
}

func TestM2MSaveLoadRoundTrip(t *testing.T) {
	cfg := smallM2M()
	cfg.Devices = 200
	ds := GenerateM2M(cfg)
	var buf bytes.Buffer
	if err := ds.SaveTransactions(&buf); err != nil {
		t.Fatal(err)
	}
	// Read the wire stream back through the signaling codec.
	rd := signaling.NewReader(&buf)
	for i := range ds.Transactions {
		var tx signaling.Transaction
		if err := rd.Read(&tx); err != nil {
			t.Fatalf("transaction %d of %d: %v", i, len(ds.Transactions), err)
		}
		if !tx.Time.Equal(ds.Transactions[i].Time) {
			t.Fatalf("transaction %d: time %v, saved %v", i, tx.Time, ds.Transactions[i].Time)
		}
		tx.Time = ds.Transactions[i].Time
		if tx != ds.Transactions[i] {
			t.Fatalf("transaction %d: loaded %+v, saved %+v", i, tx, ds.Transactions[i])
		}
	}
	var tail signaling.Transaction
	if err := rd.Read(&tail); err != io.EOF {
		t.Fatalf("after the last transaction: %v, want io.EOF", err)
	}
}

func TestM2MCSVExport(t *testing.T) {
	cfg := smallM2M()
	cfg.Devices = 50
	ds := GenerateM2M(cfg)
	var buf bytes.Buffer
	if err := ds.SaveTransactionsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(rows) - 1; n != len(ds.Transactions) { // minus the header
		t.Errorf("CSV rows = %d, want %d", n, len(ds.Transactions))
	}
}

func TestGenerateMNOComposition(t *testing.T) {
	ds := GenerateMNO(smallMNO())
	if len(ds.Devices) != 4000 {
		t.Fatalf("devices = %d", len(ds.Devices))
	}
	classes := map[devices.Class]int{}
	m2mInbound, m2mTotal := 0, 0
	for _, d := range ds.Devices {
		classes[d.Class]++
		if err := d.Validate(); err != nil {
			t.Fatal(err)
		}
		if d.Class.IsM2M() {
			m2mTotal++
			if !mccmnc.SameCountry(d.Home, ds.Host) {
				m2mInbound++
			}
		}
	}
	n := float64(len(ds.Devices))
	smart := float64(classes[devices.ClassSmartphone]) / n
	feat := float64(classes[devices.ClassFeaturePhone]) / n
	m2m := float64(m2mTotal) / n
	if math.Abs(smart-0.62) > 0.03 {
		t.Errorf("smartphone share = %.3f, want ~0.62", smart)
	}
	if math.Abs(feat-0.08) > 0.02 {
		t.Errorf("feature phone share = %.3f, want ~0.08", feat)
	}
	if math.Abs(m2m-0.30) > 0.03 {
		t.Errorf("m2m share = %.3f, want ~0.30", m2m)
	}
	// Fig 6: ~74.7% of m2m devices are inbound roamers.
	if f := float64(m2mInbound) / float64(m2mTotal); math.Abs(f-0.747) > 0.05 {
		t.Errorf("inbound m2m = %.3f, want ~0.747", f)
	}
}

func TestGenerateMNOHomeCountries(t *testing.T) {
	ds := GenerateMNO(smallMNO())
	top3 := map[string]bool{"NL": true, "SE": true, "ES": true}
	inbound, inTop3 := 0, 0
	meterHomes := map[mccmnc.PLMN]int{}
	for _, d := range ds.Devices {
		if mccmnc.SameCountry(d.Home, ds.Host) {
			continue
		}
		if d.MVNO {
			t.Fatal("MVNO device marked as foreign")
		}
		inbound++
		if top3[mccmnc.ISOByMCC(d.Home.MCC)] {
			inTop3++
		}
		if d.Class == devices.ClassSmartMeter {
			meterHomes[d.Home]++
		}
	}
	// Fig 5: top-3 home countries hold ~60% of inbound roamers.
	f := float64(inTop3) / float64(inbound)
	if f < 0.50 || f > 0.75 {
		t.Errorf("top-3 inbound share = %.3f, want ~0.60", f)
	}
	// §4.4: every roaming meter is provisioned by the one NL operator.
	if len(meterHomes) != 1 {
		t.Fatalf("roaming meter homes = %v, want exactly Vodafone NL", meterHomes)
	}
	for plmn := range meterHomes {
		if plmn != mccmnc.MustParse("20404") {
			t.Errorf("roaming meters homed at %v", plmn)
		}
	}
}

func TestGenerateMNOCatalogConsistency(t *testing.T) {
	ds := GenerateMNO(smallMNO())
	if len(ds.Catalog.Records) == 0 {
		t.Fatal("empty catalog")
	}
	ids := map[identity.DeviceID]bool{}
	for _, d := range ds.Devices {
		ids[d.ID] = true
	}
	for i := range ds.Catalog.Records {
		r := &ds.Catalog.Records[i]
		if !ids[r.Device] {
			t.Fatal("catalog record for unknown device")
		}
		if r.Day < 0 || r.Day >= ds.Days {
			t.Fatalf("record day %d outside window", r.Day)
		}
		if r.Events < 0 || r.FailedEvents > r.Events {
			t.Fatalf("event counts inconsistent: %d/%d", r.Events, r.FailedEvents)
		}
		if len(r.Visited) == 0 {
			t.Fatal("record without visited network")
		}
	}
	// Summaries must join the GSMA catalog for every device.
	sums := ds.Catalog.SummariesWorkers(ds.GSMA, 0)
	joined := 0
	for _, s := range sums {
		if s.InfoOK {
			joined++
		}
	}
	if f := float64(joined) / float64(len(sums)); f < 0.999 {
		t.Errorf("GSMA join rate = %.4f, want ~1", f)
	}
}

func TestGenerateMNOSMIPRange(t *testing.T) {
	ds := GenerateMNO(smallMNO())
	// Native meters sit inside the dedicated IMSI range; nothing else
	// does.
	for _, d := range ds.Devices {
		inRange := d.IMSI.PLMN == ds.Host && d.IMSI.MSIN >= SMIPNativeBase
		isNativeMeter := d.Class == devices.ClassSmartMeter && d.Home == ds.Host
		if inRange != isNativeMeter {
			t.Fatalf("IMSI range mismatch: class=%v home=%v imsi=%v", d.Class, d.Home, d.IMSI)
		}
	}
}

func TestGenerateSMIPCohorts(t *testing.T) {
	ds := GenerateSMIP(smallSMIP())
	if len(ds.Devices) != 2500 {
		t.Fatalf("devices = %d", len(ds.Devices))
	}
	native, roaming := 0, 0
	for _, d := range ds.Devices {
		if ds.Native[d.ID] {
			native++
			if !d.IMSI.InRange(ds.NativeRange) {
				t.Fatal("native meter outside dedicated IMSI range")
			}
		} else {
			roaming++
			if d.Home != mccmnc.MustParse("20404") {
				t.Fatalf("roaming meter homed at %v", d.Home)
			}
			if v := d.Info.Vendor; v != "Gemalto" && v != "Telit" {
				t.Fatalf("roaming meter vendor %q", v)
			}
		}
	}
	if native != 1500 || roaming != 1000 {
		t.Errorf("cohorts = %d/%d", native, roaming)
	}
}

func TestGenerateSMIPActivityContrast(t *testing.T) {
	ds := GenerateSMIP(smallSMIP())
	activeDays := map[identity.DeviceID]int{}
	events := map[identity.DeviceID]int{}
	for i := range ds.Catalog.Records {
		r := &ds.Catalog.Records[i]
		activeDays[r.Device]++
		events[r.Device] += r.Events
	}
	var natDays, roamDays []float64
	var natEv, roamEv, natN, roamN float64
	for _, d := range ds.Devices {
		if ds.Native[d.ID] {
			natDays = append(natDays, float64(activeDays[d.ID]))
			natEv += float64(events[d.ID])
			natN++
		} else {
			roamDays = append(roamDays, float64(activeDays[d.ID]))
			roamEv += float64(events[d.ID])
			roamN++
		}
	}
	sort.Float64s(natDays)
	sort.Float64s(roamDays)
	if med := natDays[len(natDays)/2]; med < 22 {
		t.Errorf("native median active days = %.0f, want ~26", med)
	}
	if med := roamDays[len(roamDays)/2]; med > 8 {
		t.Errorf("roaming median active days = %.0f, want ~5", med)
	}
	// Fig 11b: per-active-day signaling of roaming meters ~10x native.
	natPerDay := natEv / sum(natDays)
	roamPerDay := roamEv / sum(roamDays)
	if ratio := roamPerDay / natPerDay; ratio < 5 || ratio > 16 {
		t.Errorf("roaming/native signaling per day = %.1f, want ~10", ratio)
	}
}

func sum(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s
}

func TestGenerateMNODeterministic(t *testing.T) {
	cfg := smallMNO()
	cfg.Devices = 500
	a, b := GenerateMNO(cfg), GenerateMNO(cfg)
	if len(a.Catalog.Records) != len(b.Catalog.Records) {
		t.Fatal("catalog sizes differ")
	}
	for i := range a.Catalog.Records {
		x, y := a.Catalog.Records[i], b.Catalog.Records[i]
		if x.Device != y.Device || x.Day != y.Day || x.Events != y.Events || x.Bytes != y.Bytes {
			t.Fatalf("record %d differs", i)
		}
	}
}

func BenchmarkGenerateM2M(b *testing.B) {
	cfg := smallM2M()
	for i := 0; i < b.N; i++ {
		_ = GenerateM2M(cfg)
	}
}

func BenchmarkGenerateMNO(b *testing.B) {
	cfg := smallMNO()
	for i := 0; i < b.N; i++ {
		_ = GenerateMNO(cfg)
	}
}

// A federation with ArchiveDir set persists one verifiable store per
// site while the catalogs build, and each store replays the site's
// CDR plane deterministically across worker counts.
func TestFederationArchiveSites(t *testing.T) {
	cfg := DefaultFederationConfig()
	cfg.FleetDevices, cfg.NativePerSite, cfg.Days = 150, 80, 5
	cfg.ArchiveDir = t.TempDir()
	fed := GenerateFederation(cfg)

	for _, site := range fed.Sites {
		dir := filepath.Join(cfg.ArchiveDir, "site-"+site.Host.Concat())
		r, err := store.Open(dir)
		if err != nil {
			t.Fatalf("site %v: %v", site.Host, err)
		}
		if rep := r.Verify(); !rep.OK() {
			t.Fatalf("site %v store fails verification:\n%s", site.Host, rep)
		}
		if r.Manifest().TotalRecords == 0 {
			t.Fatalf("site %v archived no records", site.Host)
		}
		cat1, _, err := r.Replay(store.Query{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		cat4, _, err := r.Replay(store.Query{}, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cat1.Records, cat4.Records) {
			t.Fatalf("site %v: replay differs between worker counts", site.Host)
		}
		if len(cat1.Records) == 0 {
			t.Fatalf("site %v: replayed catalog is empty", site.Host)
		}
	}
}
