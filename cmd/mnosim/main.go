// Command mnosim synthesizes the §4 visited-MNO dataset and writes
// the daily devices-catalog as CSV, plus an optional ground-truth
// class file for validation.
//
// The dataset never materializes: StreamMNO's one producer walks the
// devices in order and hands them and their records, through a small
// bounded window, straight to the CSV writers, so the process peak
// does not grow with -devices. -max-heap-mib turns the run into a
// self-asserting memory experiment: the process samples its own heap
// and exits non-zero if the peak exceeded the budget — the hook CI's
// scale-smoke job uses to hold the streamed path to a fixed budget.
// Both output files appear only when the whole run succeeds.
//
// Usage:
//
//	mnosim -devices 30000 -days 22 -seed 1 -out catalog.csv -truth truth.csv
//	mnosim -devices 300000 -max-heap-mib 512 -out catalog.csv
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"time"

	"whereroam/internal/catalog"
	"whereroam/internal/cli"
	"whereroam/internal/dataset"
	"whereroam/internal/devices"
	"whereroam/internal/obs"
)

func main() { cli.Main("mnosim", run) }

func run(args []string, stdout io.Writer) (err error) {
	cfg := dataset.DefaultMNOConfig()
	fs := flag.NewFlagSet("mnosim", flag.ContinueOnError)
	fs.IntVar(&cfg.Devices, "devices", cfg.Devices, "distinct devices across the window")
	fs.IntVar(&cfg.Days, "days", cfg.Days, "observation window in days")
	fs.Uint64Var(&cfg.Seed, "seed", cfg.Seed, "generator seed")
	out := fs.String("out", "catalog.csv", "devices-catalog output path")
	truth := fs.String("truth", "", "optional ground-truth class CSV output path")
	maxHeapMiB := fs.Int64("max-heap-mib", 0, "fail if the process heap peak exceeds this many MiB (0 = no assertion)")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if cfg.Devices <= 0 || cfg.Days <= 0 {
		return cli.Usagef("-devices and -days must be positive (got %d, %d)", cfg.Devices, cfg.Days)
	}

	defer obs.HeapBudget(*maxHeapMiB)(&err)

	f, err := cli.Create(*out)
	if err != nil {
		return err
	}
	defer f.Discard()
	// werr keeps the first write error; the sink callbacks cannot
	// return one, so they stop writing instead.
	var werr error
	var tw *csv.Writer
	var tf *cli.File
	if *truth != "" {
		if tf, err = cli.Create(*truth); err != nil {
			return err
		}
		defer tf.Discard()
		tw = csv.NewWriter(tf)
		werr = tw.Write([]string{"device", "class"})
	}

	start := time.Now()
	cw, err := catalog.NewCSVWriter(f, cfg.Host, cfg.Days)
	if err != nil {
		return err
	}
	stream := dataset.StreamMNO(cfg, dataset.MNOSink{
		Device: func(d devices.Device, _ bool) {
			if tw != nil && werr == nil {
				werr = tw.Write([]string{d.ID.String(), d.Class.String()})
			}
		},
		Record: func(rec catalog.DailyRecord) {
			if werr == nil {
				werr = cw.Write(&rec)
			}
		},
	})
	if werr != nil {
		return werr
	}
	if err := cw.Flush(); err != nil {
		return err
	}
	slog.Info("streamed", "records", stream.Records, "devices", stream.Devices,
		"elapsed", time.Since(start).Round(time.Millisecond))
	if tw != nil {
		tw.Flush()
		if err := tw.Error(); err != nil {
			return err
		}
		if err := tf.Commit(); err != nil {
			return err
		}
	}
	if err := f.Commit(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s (%d records)\n", *out, stream.Records)
	if tw != nil {
		fmt.Fprintf(stdout, "wrote %s (%d devices)\n", *truth, stream.Devices)
	}
	return nil
}
