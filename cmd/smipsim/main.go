// Command smipsim synthesizes the §7 SMIP smart-meter dataset and
// writes its devices-catalog as CSV. By default it runs the direct
// aggregate generator; -stream runs the full per-event measurement
// path instead (radio events and CDRs straight into the per-worker
// catalog builders) without ever holding the event streams.
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
	"io"
	"log/slog"
	"runtime"
	"time"

	"whereroam/internal/cli"
	"whereroam/internal/dataset"
)

func main() { cli.Main("smipsim", run) }

func run(args []string, stdout io.Writer) error {
	cfg := dataset.DefaultSMIPConfig()
	fs := flag.NewFlagSet("smipsim", flag.ContinueOnError)
	fs.IntVar(&cfg.NativeMeters, "native", cfg.NativeMeters, "SMIP-native meters")
	fs.IntVar(&cfg.RoamingMeters, "roaming", cfg.RoamingMeters, "roaming meters on global IoT SIMs")
	fs.IntVar(&cfg.Days, "days", cfg.Days, "observation window in days")
	fs.Uint64Var(&cfg.Seed, "seed", cfg.Seed, "generator seed")
	fs.Float64Var(&cfg.NBIoTMigration, "nbiot", 0, "fraction of roaming meters migrated to NB-IoT, in [0, 1]")
	fs.IntVar(&cfg.Workers, "workers", runtime.GOMAXPROCS(0), "worker pool size of the aggregate generator and the per-event pipeline (output is identical for any value)")
	stream := fs.Bool("stream", false, "generate via the per-event probe+builder pipeline instead of the aggregate model")
	out := fs.String("out", "smip.csv", "devices-catalog output path")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if cfg.Days <= 0 || cfg.NativeMeters < 0 || cfg.RoamingMeters < 0 ||
		!(cfg.NBIoTMigration >= 0 && cfg.NBIoTMigration <= 1) { // NaN fails too
		return cli.Usagef("need -days > 0, -native and -roaming >= 0, -nbiot in [0, 1] (got %d, %d, %d, %v)",
			cfg.Days, cfg.NativeMeters, cfg.RoamingMeters, cfg.NBIoTMigration)
	}

	f, err := cli.Create(*out)
	if err != nil {
		return err
	}
	defer f.Discard()
	start := time.Now()
	var ds *dataset.SMIPDataset
	if *stream {
		ds = dataset.GenerateSMIPStreaming(cfg)
		slog.Info("streaming pipeline: catalog built with no materialized capture")
	} else {
		ds = dataset.GenerateSMIP(cfg)
	}
	slog.Info("generated", "records", len(ds.Catalog.Records), "meters", len(ds.Devices),
		"elapsed", time.Since(start).Round(time.Millisecond))

	if err := ds.Catalog.WriteCSV(f); err != nil {
		return err
	}
	if err := f.Commit(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s (%d records; %d native, %d roaming, %d on NB-IoT)\n",
		*out, len(ds.Catalog.Records), cfg.NativeMeters, cfg.RoamingMeters, len(ds.NBIoT))
	return nil
}
