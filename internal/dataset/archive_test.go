package dataset

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"whereroam/internal/cdrs"
	"whereroam/internal/identity"
	"whereroam/internal/store"
)

// The two archive routes land on the same stores: ArchiveFederation
// over a federation built without an archive, and the in-pass tee of
// FederationConfig.ArchiveDir. Segment bytes interleave with the
// emission shards, so the comparison is per site on what a reader
// sees — the manifest's record count, each device's records in order,
// and the replayed catalog's CSV.
func TestArchiveFederationMatchesInPassArchive(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		for _, workers := range []int{1, 4} {
			cfg := DefaultFederationConfig()
			cfg.Seed = seed
			cfg.FleetDevices, cfg.NativePerSite, cfg.Days = 100, 50, 5
			cfg.Workers = workers
			cfg.ArchiveSegmentRecords = 500

			plain := GenerateFederation(cfg)
			rewalked := t.TempDir()
			if err := ArchiveFederation(plain, rewalked, cfg.ArchiveSegmentRecords); err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			cfg.ArchiveDir = t.TempDir()
			GenerateFederation(cfg)

			for _, host := range cfg.Hosts {
				want := readSiteArchive(t, store.SiteDir(cfg.ArchiveDir, host.Concat()), workers)
				got := readSiteArchive(t, store.SiteDir(rewalked, host.Concat()), workers)
				if want.total == 0 {
					t.Fatalf("seed %d site %v: the in-pass archive holds no records", seed, host)
				}
				if got.total != want.total {
					t.Errorf("seed %d workers %d site %v: TotalRecords %d, in-pass %d", seed, workers, host, got.total, want.total)
				}
				if !reflect.DeepEqual(got.perDevice, want.perDevice) {
					t.Errorf("seed %d workers %d site %v: per-device records differ from the in-pass archive", seed, workers, host)
				}
				if !bytes.Equal(got.csv, want.csv) {
					t.Errorf("seed %d workers %d site %v: replayed catalog CSV differs from the in-pass archive", seed, workers, host)
				}
			}
		}
	}
}

type siteArchive struct {
	total     int64
	perDevice map[identity.DeviceID][]cdrs.Record
	csv       []byte
}

func readSiteArchive(t *testing.T, dir string, workers int) siteArchive {
	t.Helper()
	r, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	a := siteArchive{total: r.Manifest().TotalRecords, perDevice: map[identity.DeviceID][]cdrs.Record{}}
	if _, err := r.ReplayRecords(store.Query{}, func(rec cdrs.Record) {
		a.perDevice[rec.Device] = append(a.perDevice[rec.Device], rec)
	}); err != nil {
		t.Fatal(err)
	}
	cat, _, err := r.Replay(store.Query{}, workers)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := cat.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	a.csv = buf.Bytes()
	return a
}

// An archive root that cannot hold site directories is an error the
// caller sees, not a panic.
func TestArchiveFederationReportsWriterErrors(t *testing.T) {
	cfg := DefaultFederationConfig()
	cfg.FleetDevices, cfg.NativePerSite, cfg.Days = 60, 30, 3
	fed := GenerateFederation(cfg)

	root := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(root, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := ArchiveFederation(fed, root, 0); err == nil {
		t.Fatal("ArchiveFederation into a regular file returned no error")
	}
}
