// Command smipsim synthesizes the §7 SMIP smart-meter dataset and
// writes its devices-catalog as CSV. With -raw it exercises the full
// per-event measurement path (radio events and CDRs through probe
// taps into the catalog builder) instead of the direct aggregate
// generator; -stream runs the same measurement path without keeping
// the capture, each emission shard feeding the catalog builder it owns
// — bit-identical to -raw, without ever holding the event streams.
//
// With -archive the streaming path additionally persists the CDR/xDR
// feed to a segmented archive (internal/store) while the catalog
// builds — persist-and-ingest in one pass; with -replay the catalog
// is instead rebuilt from such an archive, no generation at all.
//
// Usage:
//
//	smipsim -native 20000 -roaming 12000 -out smip.csv
//	smipsim -native 2000 -roaming 1500 -raw -out smip.csv
//	smipsim -native 50000 -roaming 30000 -stream -out smip.csv
//	smipsim -stream -archive /data/smip-feed -out smip.csv
//	smipsim -replay /data/smip-feed -out smip-replayed.csv
//	smipsim -nbiot 0.5    # §8: half the roaming fleet on NB-IoT
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"time"

	"whereroam/internal/dataset"
	"whereroam/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("smipsim: ")
	var (
		native  = flag.Int("native", 20000, "SMIP-native meters")
		roaming = flag.Int("roaming", 12000, "roaming meters on global IoT SIMs")
		days    = flag.Int("days", 26, "observation window in days")
		seed    = flag.Uint64("seed", 1, "generator seed")
		nbiot   = flag.Float64("nbiot", 0, "fraction of roaming meters migrated to NB-IoT")
		raw     = flag.Bool("raw", false, "generate via the per-event probe+builder pipeline (materialized capture)")
		stream  = flag.Bool("stream", false, "generate via the per-event pipeline without materializing the capture")
		archive = flag.String("archive", "", "persist the CDR/xDR feed to a segmented store at this directory (implies -stream)")
		replay  = flag.String("replay", "", "rebuild the catalog from a segmented store instead of generating")
		workers = flag.Int("workers", runtime.GOMAXPROCS(0), "raw-capture worker pool size (output is identical for any value)")
		out     = flag.String("out", "smip.csv", "devices-catalog output path")
	)
	flag.Parse()

	if *replay != "" {
		r, err := store.Open(*replay)
		if err != nil {
			log.Fatal(err)
		}
		cat, stats, err := r.Replay(store.Query{}, *workers)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("replayed %d records (%d segments read, %d pruned, %d torn-skipped; %d body bytes)",
			stats.RecordsKept, stats.SegmentsRead, stats.SegmentsPruned, stats.SegmentsTorn, stats.BytesRead)
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		if err := cat.WriteCSV(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (%d records replayed from %s)\n", *out, len(cat.Records), *replay)
		return
	}

	cfg := dataset.DefaultSMIPConfig()
	cfg.NativeMeters = *native
	cfg.RoamingMeters = *roaming
	cfg.Days = *days
	cfg.Seed = *seed
	cfg.NBIoTMigration = *nbiot
	cfg.Workers = *workers

	var arch *store.Writer
	if *archive != "" {
		*stream = true
		w, err := store.NewWriter(*archive, store.Meta{Host: cfg.Host, Start: cfg.Start, Days: cfg.Days}, 0)
		if err != nil {
			log.Fatal(err)
		}
		arch = w
		cfg.ArchiveCDRs = w.Sink()
	}

	start := time.Now()
	var ds *dataset.SMIPDataset
	switch {
	case *stream:
		ds = dataset.GenerateSMIPStreaming(cfg)
		log.Printf("streaming pipeline: catalog built with no materialized capture")
		if arch != nil {
			if err := arch.Close(); err != nil {
				log.Fatal(err)
			}
			log.Printf("archived %d records into %d segments at %s", arch.Count(), arch.Segments(), *archive)
		}
	case *raw:
		var streams *dataset.RawStreams
		ds, streams = dataset.GenerateSMIPRaw(cfg)
		log.Printf("raw pipeline: %d radio events, %d CDRs/xDRs",
			len(streams.Radio), len(streams.Records))
	default:
		ds = dataset.GenerateSMIP(cfg)
	}
	log.Printf("generated %d catalog records for %d meters in %v",
		len(ds.Catalog.Records), len(ds.Devices), time.Since(start).Round(time.Millisecond))

	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	if err := ds.Catalog.WriteCSV(f); err != nil {
		log.Fatal(err)
	}
	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	nNB := len(ds.NBIoT)
	fmt.Printf("wrote %s (%d records; %d native, %d roaming, %d on NB-IoT)\n",
		*out, len(ds.Catalog.Records), *native, *roaming, nNB)
}
