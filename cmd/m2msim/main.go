// Command m2msim synthesizes the §3 M2M-platform signaling dataset
// and writes it to disk in the binary wire format or as CSV.
//
// Usage:
//
//	m2msim -devices 12000 -days 11 -seed 1 -out m2m.bin
//	m2msim -devices 1000 -csv -out m2m.csv
package main

import (
	"flag"
	"fmt"
	"io"
	"log/slog"
	"time"

	"whereroam/internal/cli"
	"whereroam/internal/dataset"
	"whereroam/internal/netsim"
)

func main() { cli.Main("m2msim", run) }

func run(args []string, stdout io.Writer) error {
	cfg := dataset.DefaultM2MConfig()
	fs := flag.NewFlagSet("m2msim", flag.ContinueOnError)
	fs.IntVar(&cfg.Devices, "devices", cfg.Devices, "IoT SIM population size")
	fs.IntVar(&cfg.Days, "days", cfg.Days, "observation window in days")
	fs.Uint64Var(&cfg.Seed, "seed", cfg.Seed, "generator seed")
	fs.Float64Var(&cfg.SampleRate, "sample", 1, "probe sampling rate (0,1]")
	policy := fs.String("policy", "sticky", "VMNO selection policy: sticky|strongest|rotate")
	out := fs.String("out", "m2m.bin", "output path")
	asCSV := fs.Bool("csv", false, "write CSV instead of the binary wire format")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if cfg.Devices <= 0 || cfg.Days <= 0 || !(cfg.SampleRate > 0 && cfg.SampleRate <= 1) { // NaN fails too
		return cli.Usagef("need -devices and -days > 0, -sample in (0, 1] (got %d, %d, %v)",
			cfg.Devices, cfg.Days, cfg.SampleRate)
	}
	var ok bool
	cfg.Policy, ok = map[string]netsim.SelectionPolicy{
		"sticky": netsim.PolicySticky, "strongest": netsim.PolicyStrongest, "rotate": netsim.PolicyRotate,
	}[*policy]
	if !ok {
		return cli.Usagef("unknown -policy %q", *policy)
	}

	f, err := cli.Create(*out)
	if err != nil {
		return err
	}
	defer f.Discard()
	start := time.Now()
	ds := dataset.GenerateM2M(cfg)
	slog.Info("generated", "transactions", len(ds.Transactions), "devices", len(ds.Truth),
		"elapsed", time.Since(start).Round(time.Millisecond))

	if *asCSV {
		err = ds.SaveTransactionsCSV(f)
	} else {
		err = ds.SaveTransactions(f)
	}
	if err != nil {
		return err
	}
	info, err := f.Stat()
	if err != nil {
		return err
	}
	if err := f.Commit(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s (%d bytes, %d transactions, %d devices, %d days)\n",
		*out, info.Size(), len(ds.Transactions), len(ds.Truth), ds.Days)
	return nil
}
