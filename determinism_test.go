// Determinism under parallelism: the sharded pipeline must produce
// bit-identical artefacts at every worker count — same catalog
// records, same summary ordering and contents, same classification
// breakdown. These tests pin the contract the engine is built on
// (per-entity RNG substreams, worker-count-independent shard
// boundaries, shard-ordered merges) for the synthesis → catalog →
// classification chain.
package whereroam

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"whereroam/internal/catalog"
	"whereroam/internal/cdrs"
	"whereroam/internal/core"
	"whereroam/internal/dataset"
	"whereroam/internal/devices"
	"whereroam/internal/identity"
	"whereroam/internal/ingest"
	"whereroam/internal/signaling"
	"whereroam/internal/store"
)

// detMNO generates a small MNO dataset at the given seed and worker
// count and runs the full downstream pipeline at that worker count.
func detMNO(seed uint64, workers int) (*dataset.MNODataset, []catalog.Summary, []core.Result) {
	cfg := dataset.DefaultMNOConfig()
	cfg.Seed = seed
	cfg.Devices = 1500
	cfg.Workers = workers
	ds := dataset.GenerateMNO(cfg)
	sums := ds.Catalog.SummariesWorkers(ds.GSMA, workers)
	results := core.NewClassifier().ClassifyWorkers(sums, workers)
	return ds, sums, results
}

func TestPipelineDeterministicAcrossWorkerCounts(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		serial, serialSums, serialRes := detMNO(seed, 1)
		for _, workers := range []int{4, 0} {
			par, parSums, parRes := detMNO(seed, workers)

			if len(par.Catalog.Records) != len(serial.Catalog.Records) {
				t.Fatalf("seed %d workers %d: %d records, serial has %d",
					seed, workers, len(par.Catalog.Records), len(serial.Catalog.Records))
			}
			if !reflect.DeepEqual(par.Catalog.Records, serial.Catalog.Records) {
				t.Errorf("seed %d workers %d: catalog records differ from serial", seed, workers)
			}
			if !reflect.DeepEqual(parSums, serialSums) {
				t.Errorf("seed %d workers %d: summaries differ from serial (ordering or contents)", seed, workers)
			}
			if !reflect.DeepEqual(par.Truth, serial.Truth) {
				t.Errorf("seed %d workers %d: ground truth differs from serial", seed, workers)
			}
			if !reflect.DeepEqual(par.Declared, serial.Declared) {
				t.Errorf("seed %d workers %d: IR.88 verdicts differ from serial", seed, workers)
			}
			if !reflect.DeepEqual(parRes, serialRes) {
				t.Errorf("seed %d workers %d: classification results differ from serial", seed, workers)
			}
			sb, pb := core.Breakdown(serialRes), core.Breakdown(parRes)
			if !reflect.DeepEqual(sb, pb) {
				t.Errorf("seed %d workers %d: breakdown %v, serial %v", seed, workers, pb, sb)
			}
		}
	}
}

// The M2M platform capture concatenates shard-local probe streams in
// shard order, so the transaction stream is also worker-count
// invariant.
func TestM2MDeterministicAcrossWorkerCounts(t *testing.T) {
	cfg := dataset.DefaultM2MConfig()
	cfg.Devices = 800
	cfg.Workers = 1
	serial := dataset.GenerateM2M(cfg)
	cfg.Workers = 4
	par := dataset.GenerateM2M(cfg)
	if !reflect.DeepEqual(serial.Transactions, par.Transactions) {
		t.Error("workers=4 transaction stream differs from serial")
	}
	if !reflect.DeepEqual(serial.Truth, par.Truth) {
		t.Error("workers=4 ground truth differs from serial")
	}
}

// smipFeed runs the per-event SMIP capture with an ArchiveCDRs
// collector and returns the dataset and the archived feed the way a
// national mediation feed arrives: ordered by time, ties by device
// (population order) and then by each device's own sequence. The
// collector is called concurrently from the emission shards, so the
// records are grouped per device first.
func smipFeed(cfg dataset.SMIPConfig) (*dataset.SMIPDataset, []cdrs.Record) {
	var mu sync.Mutex
	perDev := map[identity.DeviceID][]cdrs.Record{}
	cfg.ArchiveCDRs = func(r cdrs.Record) {
		mu.Lock()
		perDev[r.Device] = append(perDev[r.Device], r)
		mu.Unlock()
	}
	ds := dataset.GenerateSMIPStreaming(cfg)
	var feed []cdrs.Record
	for _, d := range ds.Devices {
		feed = append(feed, perDev[d.ID]...)
	}
	sort.SliceStable(feed, func(i, j int) bool { return feed[i].Time.Before(feed[j].Time) })
	return ds, feed
}

// fedM2MPlane folds the federated M2M plane into one stream: the
// members' slices concatenated in fleet order, then stable-sorted by
// time.
func fedM2MPlane(fed *dataset.FederationDataset) []signaling.Transaction {
	per := make([][]signaling.Transaction, len(fed.Fleet))
	dataset.FoldFederationM2M(fed, func(i int, txs []signaling.Transaction) {
		per[i] = slices.Clone(txs)
	})
	plane := slices.Concat(per...)
	sort.SliceStable(plane, func(i, j int) bool { return plane[i].Time.Before(plane[j].Time) })
	return plane
}

// Tied timestamps must not break worker-count equivalence: the final
// time sort is stable over the shard-ordered capture, so ties keep
// serial emission order whatever the fan-out. A one-day window forces
// heavy second-granularity collisions.
func TestStreamM2MTieHeavyStableOrder(t *testing.T) {
	cfg := dataset.DefaultM2MConfig()
	cfg.Devices = 600
	cfg.Days = 1
	cfg.Workers = 1
	serial := dataset.GenerateM2M(cfg)

	ties := 0
	for i := 1; i < len(serial.Transactions); i++ {
		if serial.Transactions[i].Time.Equal(serial.Transactions[i-1].Time) &&
			serial.Transactions[i].Device != serial.Transactions[i-1].Device {
			ties++
		}
	}
	if ties == 0 {
		t.Fatal("capture has no cross-device timestamp ties; the regression needs them")
	}

	cfg.Workers = 4
	if par := dataset.GenerateM2M(cfg); !reflect.DeepEqual(serial.Transactions, par.Transactions) {
		t.Errorf("workers 4: %d cross-device ties permuted differently from the serial capture", ties)
	}
}

// A federation observes one shared fleet from several visited
// operators; every site's catalog — and everything derived from it —
// must be bit-identical at any worker count.
func TestFederationDeterministicAcrossWorkerCounts(t *testing.T) {
	base := dataset.DefaultFederationConfig()
	base.FleetDevices, base.NativePerSite, base.Days = 250, 150, 8
	base.Workers = 1
	serial := dataset.GenerateFederation(base)

	if len(serial.Sites) != 3 {
		t.Fatalf("default federation has %d sites, want 3", len(serial.Sites))
	}
	for _, workers := range []int{4, 0} {
		cfg := base
		cfg.Workers = workers
		fed := dataset.GenerateFederation(cfg)
		if !reflect.DeepEqual(serial.Fleet, fed.Fleet) {
			t.Errorf("workers=%d: shared fleet differs", workers)
		}
		if !reflect.DeepEqual(serial.Truth, fed.Truth) {
			t.Errorf("workers=%d: fleet truth differs", workers)
		}
		if !reflect.DeepEqual(serial.Schedule, fed.Schedule) {
			t.Errorf("workers=%d: presence schedule differs", workers)
		}
		for j := range serial.Sites {
			a, b := serial.Sites[j], fed.Sites[j]
			if !reflect.DeepEqual(a.Catalog.Records, b.Catalog.Records) {
				t.Errorf("workers=%d site %d: catalog differs", workers, j)
			}
			if !reflect.DeepEqual(a.Present, b.Present) {
				t.Errorf("workers=%d site %d: fleet presence differs", workers, j)
			}
			if !reflect.DeepEqual(a.Truth, b.Truth) {
				t.Errorf("workers=%d site %d: local truth differs", workers, j)
			}
		}
	}
}

// The shared presence schedule makes federation presence mutually
// exclusive: a fleet device scheduled at one site on a day must
// appear in no other site's catalog that day, and every observed
// (device, day) must match the schedule exactly.
func TestFederationScheduleExclusive(t *testing.T) {
	cfg := dataset.DefaultFederationConfig()
	cfg.FleetDevices, cfg.NativePerSite, cfg.Days = 300, 100, 8
	fed := dataset.GenerateFederation(cfg)

	idx := make(map[identity.DeviceID]int, len(fed.Fleet))
	for i := range fed.Fleet {
		idx[fed.Fleet[i].ID] = i
	}
	type devDay struct {
		dev identity.DeviceID
		day int
	}
	seenAt := map[devDay]int{}
	checked := 0
	for j, site := range fed.Sites {
		for i := range site.Catalog.Records {
			rec := &site.Catalog.Records[i]
			fi, isFleet := idx[rec.Device]
			if !isFleet {
				continue
			}
			checked++
			if got := fed.ScheduledSite(fi, rec.Day); int(got) != j {
				t.Fatalf("device %v day %d observed at site %d but scheduled at %d",
					rec.Device, rec.Day, j, got)
			}
			key := devDay{rec.Device, rec.Day}
			if prev, dup := seenAt[key]; dup && prev != j {
				t.Fatalf("device %v active at sites %d and %d on day %d",
					rec.Device, prev, j, rec.Day)
			}
			seenAt[key] = j
		}
	}
	if checked == 0 {
		t.Fatal("no fleet device-days observed; invariant vacuous")
	}
}

// The federated M2M plane — the §3/§6 signaling view of the shared
// fleet — must be bit-identical across worker counts. Every
// transaction's visited network must follow the shared
// schedule (cancel-location legs of a switch aim at the previous
// day's network by design).
func TestFederationM2MPlaneDeterministic(t *testing.T) {
	cfg := dataset.DefaultFederationConfig()
	cfg.FleetDevices, cfg.NativePerSite, cfg.Days = 250, 50, 8
	cfg.Workers = 1
	fed := dataset.GenerateFederation(cfg)
	serial := fedM2MPlane(fed)
	if len(serial) == 0 {
		t.Fatal("federated M2M plane emitted no transactions")
	}

	cfg.Workers = 4
	if par := fedM2MPlane(dataset.GenerateFederation(cfg)); !reflect.DeepEqual(serial, par) {
		t.Error("workers=4 federated M2M stream differs from serial")
	}

	// Schedule consistency: every non-cancel transaction sits on the
	// network the schedule names for its day.
	idx := make(map[identity.DeviceID]int, len(fed.Fleet))
	for i := range fed.Fleet {
		idx[fed.Fleet[i].ID] = i
	}
	for _, tx := range serial {
		if tx.Procedure == signaling.ProcCancelLocation {
			continue
		}
		day := int(tx.Time.Sub(fed.Start).Hours() / 24)
		want := fed.Fleet[idx[tx.Device]].Home
		if s := fed.ScheduledSite(idx[tx.Device], day); s >= 0 {
			want = fed.Hosts[s]
		}
		if tx.Visited != want {
			t.Fatalf("tx %v on day %d visited %v, schedule says %v", tx, day, tx.Visited, want)
		}
	}
}

// The federated SMIP plane builds one meters-only catalog per site
// through the same capture walk as the main site catalogs, so it must
// be bit-identical across worker counts — and, meters being
// stationary, each fleet meter must appear at exactly one site.
func TestFederationSMIPPlaneDeterministic(t *testing.T) {
	base := dataset.DefaultFederationConfig()
	base.FleetDevices, base.NativePerSite, base.Days = 250, 60, 8
	base.Workers = 1
	serial := dataset.GenerateFederationSMIP(dataset.GenerateFederation(base))

	for _, workers := range []int{4, 0} {
		cfg := base
		cfg.Workers = workers
		plane := dataset.GenerateFederationSMIP(dataset.GenerateFederation(cfg))
		for j := range serial.Sites {
			a, b := serial.Sites[j], plane.Sites[j]
			if !reflect.DeepEqual(a.Catalog.Records, b.Catalog.Records) {
				t.Errorf("workers=%d site %d: SMIP catalog differs", workers, j)
			}
			if !reflect.DeepEqual(a.Native, b.Native) {
				t.Errorf("workers=%d site %d: native cohort differs", workers, j)
			}
			if a.NativeRange != b.NativeRange {
				t.Errorf("workers=%d site %d: native range differs", workers, j)
			}
		}
	}

	sitesOf := map[identity.DeviceID]int{}
	fleetMeters := 0
	for _, site := range serial.Sites {
		for id, native := range site.Native {
			if native {
				continue
			}
			sitesOf[id]++
			if sitesOf[id] > 1 {
				t.Fatalf("fleet meter %v deployed at more than one site", id)
			}
			fleetMeters++
		}
	}
	if fleetMeters == 0 {
		t.Fatal("no fleet meters deployed at any site")
	}
}

// The archive closes the loop the store subsystem is built for:
// archive a live feed once while the catalog builds, replay it many
// times — and the replayed catalog must be bit-identical to the live
// CDR-plane build at every worker count, even though the archive was
// written from concurrent emission shards (so its segmentation is not
// itself deterministic). The live reference is the CDR/xDR feed of
// the same seed's single-worker capture: the batch build feeds a
// single builder serially, the streaming build routes the identical
// records through the ingest router — the archive must reproduce both.
func TestStoreReplayDeterministic(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		cfg := dataset.DefaultSMIPConfig()
		cfg.Seed = seed
		cfg.NativeMeters, cfg.RoamingMeters = 300, 200
		cfg.Workers = 1
		_, feed := smipFeed(cfg)

		// Live CDR-plane reference builds: batch (serial builder) and
		// streaming (ingest router) over the same per-device sequences.
		b := catalog.NewBuilder(cfg.Host, cfg.Start, cfg.Days, nil)
		for i := range feed {
			b.AddRecord(feed[i])
		}
		live := b.Build()
		sb := catalog.NewShardedBuilder(cfg.Host, cfg.Start, cfg.Days, nil, 4)
		in := ingest.NewCatalogIngester(sb, 0)
		for i := range feed {
			in.OfferRecord(feed[i])
		}
		if liveStream := in.Build(4); !reflect.DeepEqual(live.Records, liveStream.Records) {
			t.Fatalf("seed %d: live streaming CDR-plane build differs from batch", seed)
		}

		// Archive the feed while the streaming generator builds its
		// catalog, from four concurrent emission workers: the archive's
		// segment contents depend on tap scheduling, the replayed
		// catalog must not.
		dir := filepath.Join(t.TempDir(), "feed")
		w, err := store.NewWriter(dir, store.Meta{Host: cfg.Host, Start: cfg.Start, Days: cfg.Days}, 512)
		if err != nil {
			t.Fatal(err)
		}
		scfg := cfg
		scfg.Workers = 4
		scfg.ArchiveCDRs = w.Sink()
		dataset.GenerateSMIPStreaming(scfg)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}

		rep, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got := rep.Manifest().TotalRecords; got != int64(len(feed)) {
			t.Fatalf("seed %d: archived %d records, live capture has %d", seed, got, len(feed))
		}
		for _, workers := range []int{1, 4, 0} {
			cat, _, err := rep.Replay(store.Query{}, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(live.Records, cat.Records) {
				t.Errorf("seed %d workers %d: replayed catalog differs from the live CDR-plane build", seed, workers)
			}
		}
	}
}

// Pruned replay must provably touch less of the store than a full
// replay — whole segments skipped by the footer index, fewer body
// bytes read — while producing exactly the day-sliced catalog. The
// archive here is the mediation-feed shape (time-ordered, as a
// national feed arrives), which is what makes segments day-correlated
// and prunable.
func TestStorePrunedReplay(t *testing.T) {
	cfg := dataset.DefaultSMIPConfig()
	cfg.NativeMeters, cfg.RoamingMeters = 300, 200
	cfg.Workers = 1
	_, feed := smipFeed(cfg)

	dir := filepath.Join(t.TempDir(), "feed")
	w, err := store.NewWriter(dir, store.Meta{Host: cfg.Host, Start: cfg.Start, Days: cfg.Days}, 512)
	if err != nil {
		t.Fatal(err)
	}
	for i := range feed {
		if err := w.Append(feed[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}

	_, full, err := rep.Replay(store.Query{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := cfg.Days/2, cfg.Days/2+1
	cat, pruned, err := rep.Replay(store.Query{}.Days(lo, hi), 0)
	if err != nil {
		t.Fatal(err)
	}
	if pruned.SegmentsPruned == 0 {
		t.Fatal("day-range replay over a time-ordered archive pruned no segments")
	}
	if pruned.BytesRead >= full.BytesRead {
		t.Fatalf("pruned replay read %d body bytes, full replay read %d", pruned.BytesRead, full.BytesRead)
	}

	b := catalog.NewBuilder(cfg.Host, cfg.Start, cfg.Days, nil)
	for i := range feed {
		day := int(feed[i].Time.Sub(cfg.Start) / (24 * time.Hour))
		if day >= lo && day <= hi {
			b.AddRecord(feed[i])
		}
	}
	if want := b.Build(); !reflect.DeepEqual(want.Records, cat.Records) {
		t.Fatal("day-pruned replay differs from the day-sliced live build")
	}
}

// The worker-count pins above only ever compare one run with another;
// this pins the absolute bytes a seed produces. The constants were
// recorded at the commit before the generators were folded onto one
// emission walk per plane (the smipraw.* and fed.m2m ones at seeds 2–3
// from the materializing generators since retired, which the one
// per-event walk reproduces; the mno.* ones at seeds 2–3 and
// m2m.sampled before StreamMNO's per-shard fan-in and the probe taps
// were retired), and must survive any refactor that
// claims to leave generated data unchanged. A deliberate change to
// what a seed generates re-records them (the failure message prints
// the new digest).
func TestGeneratorDigests(t *testing.T) {
	got := map[string]string{}
	// record hashes one artefact; recording a name twice (at another
	// worker count, or through another entry point) must reproduce the
	// digest.
	record := func(name string, write func(h hash.Hash) error) {
		h := sha256.New()
		if err := write(h); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		d := hex.EncodeToString(h.Sum(nil))
		if prev, ok := got[name]; ok && prev != d {
			t.Errorf("%s: digest %s on one recording, %s on another", name, prev, d)
		}
		got[name] = d
	}
	// seedSuffix names a seed's digests; seed 1 keeps the bare name.
	seedSuffix := func(seed uint64) string {
		if seed == 1 {
			return ""
		}
		return fmt.Sprintf("/seed%d", seed)
	}
	idSet := func(set map[identity.DeviceID]bool) func(hash.Hash) error {
		return func(h hash.Hash) error {
			ids := make([]identity.DeviceID, 0, len(set))
			for id, ok := range set {
				if ok {
					ids = append(ids, id)
				}
			}
			sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
			for _, id := range ids {
				fmt.Fprintf(h, "%v\n", id)
			}
			return nil
		}
	}

	// The MNO plane at seeds 1–3, each at one and four workers, through
	// both entry points under the same names: GenerateMNO materializes
	// it, StreamMNO hands it to a sink that writes the catalog through
	// catalog.NewCSVWriter (the bytes Catalog.WriteCSV writes).
	recordMNO := func(suffix string, start time.Time, devs []devices.Device, csv []byte, declared map[identity.DeviceID]bool) {
		record("mno.devices"+suffix, func(h hash.Hash) error {
			// Mobility models are pointers; a sampled position stands
			// in for their drawn parameters.
			at := start.Add(36 * time.Hour)
			for i := range devs {
				d := &devs[i]
				fmt.Fprintf(h, "%v|%v|%v|%+v|%v|%+v|%v|%v|%v\n",
					d.ID, d.IMSI, d.IMEI, d.Info, d.Class, d.Profile, d.Home, d.MVNO, d.Mobility.Position(at))
			}
			return nil
		})
		record("mno.catalog"+suffix, func(h hash.Hash) error { _, err := h.Write(csv); return err })
		record("mno.declared"+suffix, idSet(declared))
	}
	for seed := uint64(1); seed <= 3; seed++ {
		for _, workers := range []int{1, 4} {
			mcfg := dataset.DefaultMNOConfig()
			mcfg.Devices, mcfg.Seed, mcfg.Workers = 1500, seed, workers
			mno := dataset.GenerateMNO(mcfg)
			var csv bytes.Buffer
			err := mno.Catalog.WriteCSV(&csv)
			recordMNO(seedSuffix(seed), mcfg.Start, mno.Devices, csv.Bytes(), mno.Declared)

			var devs []devices.Device
			declared := map[identity.DeviceID]bool{}
			csv.Reset()
			cw, _ := catalog.NewCSVWriter(&csv, mcfg.Host, mcfg.Days)
			var rows int64
			stream := dataset.StreamMNO(mcfg, dataset.MNOSink{
				Device: func(d devices.Device, dec bool) {
					devs = append(devs, d)
					declared[d.ID] = dec
				},
				Record: func(rec catalog.DailyRecord) {
					rows++
					if err == nil {
						err = cw.Write(&rec)
					}
				},
			})
			if err == nil {
				err = cw.Flush()
			}
			if err != nil || stream.Records != rows || stream.Devices != len(devs) {
				t.Fatalf("seed %d workers %d: stream reports %d records, %d devices; sink saw %d, %d (%v)",
					seed, workers, stream.Records, stream.Devices, rows, len(devs), err)
			}
			recordMNO(seedSuffix(seed), mcfg.Start, devs, csv.Bytes(), declared)
		}
	}

	pcfg := dataset.DefaultM2MConfig()
	pcfg.Devices = 800
	m2m := dataset.GenerateM2M(pcfg)
	record("m2m.transactions", func(h hash.Hash) error { return m2m.SaveTransactions(h) })
	// The hash-thinned capture m2msim -sample writes, at one and four
	// workers: its kept set hangs on the probe's hash seed.
	for _, workers := range []int{1, 4} {
		scfg := pcfg
		scfg.SampleRate, scfg.Workers = 0.5, workers
		sampled := dataset.GenerateM2M(scfg)
		record("m2m.sampled", func(h hash.Hash) error { return sampled.SaveTransactions(h) })
	}

	fcfg := dataset.DefaultFederationConfig()
	fcfg.FleetDevices, fcfg.NativePerSite, fcfg.Days = 250, 150, 8
	fed := dataset.GenerateFederation(fcfg)
	for j, site := range fed.Sites {
		record(fmt.Sprintf("fed.site%d.catalog", j), func(h hash.Hash) error { return site.Catalog.WriteCSV(h) })
		record(fmt.Sprintf("fed.site%d.present", j), idSet(site.Present))
	}
	record("fed.schedule", func(h hash.Hash) error {
		for _, row := range fed.Schedule {
			for _, s := range row {
				h.Write([]byte{byte(s)})
			}
		}
		return nil
	})

	// The SMIP family: the aggregate generator, the per-event capture
	// (catalog, time-ordered CDR wire bytes), the single-worker
	// archive feed bench/feed.go relies on, and the federated plane.
	smipDS := func(ds *dataset.SMIPDataset) func(hash.Hash) error {
		return func(h hash.Hash) error {
			fmt.Fprintf(h, "%v\n", ds.NativeRange)
			return ds.Catalog.WriteCSV(h)
		}
	}
	scfg := dataset.DefaultSMIPConfig()
	scfg.NativeMeters, scfg.RoamingMeters = 300, 200
	record("smip.catalog", smipDS(dataset.GenerateSMIP(scfg)))
	// The aggregate generator at seeds 1–3, each at one and four
	// workers, and with half the roaming fleet on NB-IoT (ext-nbiot's
	// path): the catalog, then every meter's identity in device order
	// with the cohort sets.
	for seed := uint64(1); seed <= 3; seed++ {
		for _, workers := range []int{1, 4} {
			acfg := scfg
			acfg.Seed, acfg.Workers = seed, workers
			record("smip.catalog"+seedSuffix(seed), smipDS(dataset.GenerateSMIP(acfg)))
		}
	}
	for _, workers := range []int{1, 4} {
		acfg := scfg
		acfg.NBIoTMigration, acfg.Workers = 0.5, workers
		ds := dataset.GenerateSMIP(acfg)
		record("smip.nbiot", smipDS(ds))
		record("smip.devices", func(h hash.Hash) error {
			for i := range ds.Devices {
				d := &ds.Devices[i]
				fmt.Fprintf(h, "%v|%v|%v\n", d.ID, d.IMSI, d.IMEI.TAC)
			}
			fmt.Fprintln(h, "native")
			idSet(ds.Native)(h)
			fmt.Fprintln(h, "nbiot")
			return idSet(ds.NBIoT)(h)
		})
	}

	// The per-event planes at seeds 1–3, each at one and four workers.
	for seed := uint64(1); seed <= 3; seed++ {
		suffix := seedSuffix(seed)
		for _, workers := range []int{1, 4} {
			pcfg := scfg
			pcfg.Seed, pcfg.Workers = seed, workers
			ds, feed := smipFeed(pcfg)
			record("smipraw.catalog"+suffix, smipDS(ds))
			record("smipraw.records"+suffix, func(h hash.Hash) error { return cdrs.WriteAll(h, feed) })

			fc := fcfg
			fc.Seed, fc.Workers = seed, workers
			plane := fedM2MPlane(dataset.GenerateFederation(fc))
			record("fed.m2m"+suffix, func(h hash.Hash) error { return signaling.WriteAll(h, plane) })
		}
	}

	scfg.Workers = 1
	var feed []cdrs.Record
	scfg.ArchiveCDRs = func(r cdrs.Record) { feed = append(feed, r) }
	dataset.GenerateSMIPStreaming(scfg)
	record("smipstream.feed", func(h hash.Hash) error { return cdrs.WriteAll(h, feed) })
	for j, site := range dataset.GenerateFederationSMIP(fed).Sites {
		record(fmt.Sprintf("fedsmip.site%d.catalog", j), smipDS(site))
	}

	want := map[string]string{
		"mno.devices":       "fbdb98eb6b8065b167d18f65f0493b4100de2968fc123779075b862e9e87ca27",
		"mno.catalog":       "6460e8010d25fc16b1ba48e23053effcfdff02b8ee4f12c36c145d14df6a6be8",
		"mno.declared":      "1673fb0976b31940f015c6f3aa0cc128792ffc514abe9e46c3a537e8502f297c",
		"m2m.transactions":  "a7341ab129e5e1e4c48081f51d89a9c36e4b5a505a5a979b375df8a26d952c08",
		"m2m.sampled":       "d3e894c81d7e88555d2a9403813a69c88e59e5713447c1692604359ec1b55ede",
		"fed.site0.catalog": "96cbed0556380ccdee4629a252e7e730b2a7863dc6b8e87fe1b17e6f7dad8f3a",
		"fed.site0.present": "a156a5adc04381ad8284bb0f01736b02257b328c196c50097f648088b258930f",
		"fed.site1.catalog": "8471befdbd5c302e4ec62a57b20b92f8a25fa9936f67bf5da3d18b72963e1f25",
		"fed.site1.present": "79e5035b8294cedb5b6cb783ea2529ad196a2e870c9b525cf14c43e925773ab6",
		"fed.site2.catalog": "04c453ad29ee5f2c8c5d3409375b41e30245dbfd1786f5b90f46f0f409a38f62",
		"fed.site2.present": "8c467d59ff455197e3e23d2452f5a0d6d85de1e81aef4d625950a6c08cb95354",
		"fed.schedule":      "7b01adcedbc64f0407cf8e2db7dcc71fc042b059af0de4a0c66aa5826b6df9a6",
		"fed.m2m":           "f81289b29d9e323c931e00620d236e34df1deac6781c44c96b0a2295bc0e4165",
		"fed.m2m/seed2":     "a30997a3a905ad941131560fc5f3392788504bcdd3d363a499d5ec51a7cebd3f",
		"fed.m2m/seed3":     "0a251a029326fcf813d235a0f41ba9b26bae4653498e08642b23081526982b8a",

		"smip.catalog":          "3c0ee4b17c3bfb35534967319920c00ffc9265818e8f1c7b60be0dcfb85c728d",
		"smipraw.catalog":       "9e8de7588b677a94891b8c5a4146923be9ea02c0d8ef59edba11c03c1b64c96a",
		"smipraw.records":       "61c01921909f37879bc5a0f17535205e4e8caae68c5a81b16050fd76d229fbb9",
		"smipraw.catalog/seed2": "5c9837d3f2545ba83d77a1c76e6bbde421727b8f374745d14f34fc60101d675e",
		"smipraw.records/seed2": "f2440ed1102cab434421f7e4a98db5ae7413335e7249e0e172dab1eba11c6ffe",
		"smipraw.catalog/seed3": "c1212d9294fa9c720a00c95c6b38ddbe7b091970410a8b11bef32187373e1405",
		"smipraw.records/seed3": "a7b22f738834a9ed5cc8b00940fd209ee7074cf63bf5129e67ab8dd760ed6783",
		"smipstream.feed":       "9a411a07f22485ebae7a00c2e9ec896d7cd65b0ca25f24f8cded4fe092d666e3",
		"smip.catalog/seed2":    "b066797dc18e8d1b7498c903ad0f1fcf3d1ca87d63b22216f95e92807a3b1c05",
		"smip.catalog/seed3":    "4c26beeaac38695e3d764422c93081fa510e0511ddd7ee92d592ed906a7e977a",
		"smip.nbiot":            "af98718ad06ebc0b6da60c128d12298370bd63c19f59123186534e8e0943fc9b",
		"smip.devices":          "567c4945c5fd3c180e0f335940be570ac8befd4f707e64c5093da1bc507c4a1b",
		"fedsmip.site0.catalog": "c3568df2cb597a8556146bbf175963ccf4e857729fedea9f5d119c6e8728baf6",
		"fedsmip.site1.catalog": "a6e72d7225e831ce8f67ba81aae040832d4e28cbc3ed794ac7d5c06ecd645bf3",
		"fedsmip.site2.catalog": "110b5d6fb238bb8f46cc6cc6af1e808984ad71b6a5d918f67c7a88e76f86f07f",

		"mno.devices/seed2":  "dc851cb059f304a19010c7c8ce719bf437b61ddae81d96a56ea7dcaded9a06f7",
		"mno.catalog/seed2":  "3b0005de4eb99ee09bcd9b27e31fad101604ec44ae4de42a94e7678d4532b4ba",
		"mno.declared/seed2": "78e11d70e21b0c4cbc7c59ef8b216c3e2d745d762ade76e1c7f64f5e751398bf",
		"mno.devices/seed3":  "30cb2d6e22fb187aba87eddbb507744b13387e94dc0ce7e03d06bbfa21dd7bd1",
		"mno.catalog/seed3":  "120d18bb82938288d63041acccd393724b462181f796eda3613f7f900f2c78c2",
		"mno.declared/seed3": "fa9caa0f9d2da179f5e6e3acf842514d83bbd0e580ef38c9f7601cfeb9bd1ccd",
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: digest %s, want %s", name, got[name], w)
		}
	}
	for name, g := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: digest %s is not pinned", name, g)
		}
	}
}

// Per-record hash sampling makes a thinned capture worker-count
// invariant: the kept set depends on record identities, never on the
// order sampling decisions are drawn in — the property that lets
// sampled captures fan out instead of falling back to one worker.
func TestSampledM2MDeterministicAcrossWorkerCounts(t *testing.T) {
	cfg := dataset.DefaultM2MConfig()
	cfg.Devices = 800
	cfg.SampleRate = 0.5
	cfg.Workers = 1
	serial := dataset.GenerateM2M(cfg)
	if len(serial.Transactions) == 0 {
		t.Fatal("sampled capture is empty")
	}
	cfg.Workers = 4
	par := dataset.GenerateM2M(cfg)
	if !reflect.DeepEqual(serial.Transactions, par.Transactions) {
		t.Error("workers=4 sampled capture differs from serial")
	}
}
