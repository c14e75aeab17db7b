// Command mnosim synthesizes the §4 visited-MNO dataset and writes
// the daily devices-catalog as CSV, plus an optional ground-truth
// class file for validation.
//
// The dataset never materializes: StreamMNO hands devices and records
// straight to the CSV writers with at most one device resident per
// worker, so the process peak stays near the counting pre-pass
// regardless of -devices. -max-heap-mib turns the run into a
// self-asserting memory experiment: the process samples its own heap
// and exits non-zero if the peak exceeded the budget — the hook CI's
// scale-smoke job uses to hold the streamed path to a fixed budget.
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
	"log"
	"os"
	"runtime"
	"time"

	"whereroam/internal/catalog"
	"whereroam/internal/dataset"
	"whereroam/internal/devices"
	"whereroam/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mnosim: ")
	var (
		devN       = flag.Int("devices", 30000, "distinct devices across the window")
		days       = flag.Int("days", 22, "observation window in days")
		seed       = flag.Uint64("seed", 1, "generator seed")
		workers    = flag.Int("workers", runtime.GOMAXPROCS(0), "synthesis worker pool size (output is identical for any value)")
		out        = flag.String("out", "catalog.csv", "devices-catalog output path")
		truth      = flag.String("truth", "", "optional ground-truth class CSV output path")
		maxHeapMiB = flag.Int64("max-heap-mib", 0, "fail if the process heap peak exceeds this many MiB (0 = no assertion)")
	)
	flag.Parse()
	if *devN <= 0 || *days <= 0 {
		log.Printf("-devices and -days must be positive (got %d, %d)", *devN, *days)
		os.Exit(2)
	}

	cfg := dataset.DefaultMNOConfig()
	cfg.Devices = *devN
	cfg.Days = *days
	cfg.Seed = *seed
	cfg.Workers = *workers

	var stopWatch func() int64
	if *maxHeapMiB > 0 {
		stopWatch = obs.StartHeapWatch()
	}

	f, err := os.Create(*out)
	if err != nil {
		log.Fatal(err)
	}
	var tw *csv.Writer
	var tf *os.File
	if *truth != "" {
		if tf, err = os.Create(*truth); err != nil {
			log.Fatal(err)
		}
		tw = csv.NewWriter(tf)
		if err := tw.Write([]string{"device", "class"}); err != nil {
			log.Fatal(err)
		}
	}

	start := time.Now()
	cw, err := catalog.NewCSVWriter(f, cfg.Host, cfg.Days)
	if err != nil {
		log.Fatal(err)
	}
	stream := dataset.StreamMNO(cfg, dataset.MNOSink{
		Device: func(d devices.Device, _ bool) {
			if tw != nil {
				if err := tw.Write([]string{d.ID.String(), d.Class.String()}); err != nil {
					log.Fatal(err)
				}
			}
		},
		Record: func(rec catalog.DailyRecord) {
			if err := cw.Write(&rec); err != nil {
				log.Fatal(err)
			}
		},
	})
	if err := cw.Flush(); err != nil {
		log.Fatal(err)
	}
	log.Printf("streamed %d catalog records for %d devices in %v",
		stream.Records, stream.Devices, time.Since(start).Round(time.Millisecond))

	if err := f.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %s (%d records)\n", *out, stream.Records)
	if tw != nil {
		tw.Flush()
		if err := tw.Error(); err != nil {
			log.Fatal(err)
		}
		if err := tf.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s (%d devices)\n", *truth, stream.Devices)
	}

	if stopWatch != nil {
		peak := stopWatch() >> 20
		if peak > *maxHeapMiB {
			log.Fatalf("heap peak %d MiB exceeds budget %d MiB", peak, *maxHeapMiB)
		}
		log.Printf("heap peak %d MiB within budget %d MiB", peak, *maxHeapMiB)
	}
}
