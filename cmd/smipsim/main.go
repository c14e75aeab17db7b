// Command smipsim synthesizes the §7 SMIP smart-meter dataset and
// writes its devices-catalog as CSV. By default it runs the direct
// aggregate generator; -stream runs the full per-event measurement
// path instead (radio events and CDRs through probe taps into the
// catalog builder each emission shard owns) without ever holding the
// event streams.
//
// Archiving the CDR/xDR feed while the catalog builds, and rebuilding
// a catalog from such an archive, are roamstore's write and replay.
//
// Usage:
//
//	smipsim -native 20000 -roaming 12000 -out smip.csv
//	smipsim -native 50000 -roaming 30000 -stream -out smip.csv
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
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("smipsim: ")
	var (
		native  = flag.Int("native", 20000, "SMIP-native meters")
		roaming = flag.Int("roaming", 12000, "roaming meters on global IoT SIMs")
		days    = flag.Int("days", 26, "observation window in days")
		seed    = flag.Uint64("seed", 1, "generator seed")
		nbiot   = flag.Float64("nbiot", 0, "fraction of roaming meters migrated to NB-IoT, in [0, 1]")
		stream  = flag.Bool("stream", false, "generate via the per-event probe+builder pipeline instead of the aggregate model")
		workers = flag.Int("workers", runtime.GOMAXPROCS(0), "per-event pipeline worker pool size (output is identical for any value)")
		out     = flag.String("out", "smip.csv", "devices-catalog output path")
	)
	flag.Parse()
	if !(*nbiot >= 0 && *nbiot <= 1) { // NaN fails too
		log.Printf("-nbiot %v is outside [0, 1]", *nbiot)
		os.Exit(2)
	}

	cfg := dataset.DefaultSMIPConfig()
	cfg.NativeMeters = *native
	cfg.RoamingMeters = *roaming
	cfg.Days = *days
	cfg.Seed = *seed
	cfg.NBIoTMigration = *nbiot
	cfg.Workers = *workers

	start := time.Now()
	var ds *dataset.SMIPDataset
	if *stream {
		ds = dataset.GenerateSMIPStreaming(cfg)
		log.Printf("streaming pipeline: catalog built with no materialized capture")
	} else {
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
	fmt.Printf("wrote %s (%d records; %d native, %d roaming, %d on NB-IoT)\n",
		*out, len(ds.Catalog.Records), *native, *roaming, len(ds.NBIoT))
}
