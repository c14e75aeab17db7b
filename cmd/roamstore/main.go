// Command roamstore is the operator tool for segmented CDR/xDR
// archives (internal/store): it archives a live synthetic feed while
// the catalog builds (write), lists a store's segment index (ls),
// verifies footers, body CRCs and bloom frames end to end — reporting
// torn and corrupt segments (verify) — rebuilds the devices-catalog
// from a store with index-driven pruning (replay), and merges N
// tap-order archives into one time-ordered mediation-shape store
// (compact).
//
// Usage:
//
//	roamstore write   -dir /data/feed -native 2000 -roaming 1500 -days 10
//	roamstore ls      -dir /data/feed
//	roamstore verify  -dir /data/feed
//	roamstore replay  -dir /data/feed -min-day 3 -max-day 5 -out sliced.csv
//	roamstore replay  -dir /data/feed -visited 23410 -workers 8
//	roamstore compact -out /data/merged /data/site-a /data/site-b
//	roamstore compact -out /data/q4 -min-day 60 -max-day 90 -plan /data/feed
package main

import (
	"flag"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"time"

	"whereroam/internal/cli"
	"whereroam/internal/dataset"
	"whereroam/internal/identity"
	"whereroam/internal/mccmnc"
	"whereroam/internal/store"
)

func main() { cli.Main("roamstore", run) }

func run(args []string, stdout io.Writer) error {
	verbs := map[string]func([]string, io.Writer) error{
		"write": cmdWrite, "ls": cmdLs, "verify": cmdVerify, "replay": cmdReplay, "compact": cmdCompact,
	}
	if len(args) == 0 || verbs[args[0]] == nil {
		return cli.Usagef("usage: roamstore write|ls|verify|replay|compact [flags] (roamstore <verb> -h lists a verb's flags)")
	}
	return verbs[args[0]](args[1:], stdout)
}

// dayQuery is the query for the -min-day/-max-day window (negative
// means unset: day 0 and lastDay), rejecting a window that is inverted
// or starts after lastDay.
func dayQuery(cmd string, minDay, maxDay, lastDay int) (store.Query, error) {
	if minDay < 0 && maxDay < 0 {
		return store.Query{}, nil
	}
	lo, hi := max(minDay, 0), maxDay
	if hi < 0 {
		hi = lastDay
	}
	if lo > lastDay {
		return store.Query{}, cli.Usagef("%s: -min-day %d is past the window's last day %d", cmd, lo, lastDay)
	}
	if lo > hi {
		return store.Query{}, cli.Usagef("%s: -min-day %d is after -max-day %d", cmd, lo, hi)
	}
	return store.Query{}.Days(lo, hi), nil
}

// cmdWrite runs the persist-and-ingest path: the §7 streaming
// generator builds its catalog live while every CDR/xDR fans out to
// the archive.
func cmdWrite(args []string, stdout io.Writer) error {
	cfg := dataset.DefaultSMIPConfig()
	fs := flag.NewFlagSet("write", flag.ContinueOnError)
	dir := fs.String("dir", "", "store directory to create (required)")
	fs.IntVar(&cfg.NativeMeters, "native", 2000, "SMIP-native meters")
	fs.IntVar(&cfg.RoamingMeters, "roaming", 1500, "roaming meters on global IoT SIMs")
	fs.IntVar(&cfg.Days, "days", 10, "observation window in days")
	fs.Uint64Var(&cfg.Seed, "seed", 1, "generator seed")
	segRecs := fs.Int("segment", 0, "records per segment (0 = store default)")
	fs.IntVar(&cfg.Workers, "workers", runtime.GOMAXPROCS(0), "emission worker pool size")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if *dir == "" {
		return cli.Usagef("write: -dir is required")
	}
	if cfg.Days <= 0 || cfg.NativeMeters < 0 || cfg.RoamingMeters < 0 || *segRecs < 0 {
		return cli.Usagef("write: need -days > 0, -native and -roaming >= 0, -segment >= 0 (got %d, %d, %d, %d)",
			cfg.Days, cfg.NativeMeters, cfg.RoamingMeters, *segRecs)
	}

	w, err := store.NewWriter(*dir, store.Meta{Host: cfg.Host, Start: cfg.Start, Days: cfg.Days}, *segRecs)
	if err != nil {
		return err
	}
	cfg.ArchiveCDRs = w.Sink()
	start := time.Now()
	ds := dataset.GenerateSMIPStreaming(cfg)
	if err := w.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "archived %d records into %d segments at %s (catalog built live: %d records) in %v\n",
		w.Count(), w.Segments(), *dir, len(ds.Catalog.Records), time.Since(start).Round(time.Millisecond))
	return nil
}

func openStore(fs *flag.FlagSet, args []string, dir *string) (*store.Reader, error) {
	if err := cli.Parse(fs, args); err != nil {
		return nil, err
	}
	if *dir == "" {
		return nil, cli.Usagef("%s: -dir is required", fs.Name())
	}
	return store.Open(*dir)
}

func cmdLs(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("ls", flag.ContinueOnError)
	dir := fs.String("dir", "", "store directory (required)")
	r, err := openStore(fs, args, dir)
	if err != nil {
		return err
	}
	man := r.Manifest()
	fmt.Fprintf(stdout, "store %s: kind=%s host=%s start=%s days=%d segments=%d records=%d\n",
		*dir, man.Kind, man.Host, man.Start.Format(time.RFC3339), man.Days,
		len(man.Segments), man.TotalRecords)
	mi := r.ManifestInfo()
	line := fmt.Sprintf("manifest v%d: checkpoint=%d segments, log tail=%d entries",
		mi.Version, mi.CheckpointSegments, mi.TailSegments)
	if mi.TornLogTail {
		line += " (torn log tail discarded)"
	}
	fmt.Fprintln(stdout, line)
	fmt.Fprintf(stdout, "%-18s %8s %10s %11s %35s %6s %s\n", "segment", "records", "bytes", "days", "devices", "bloom", "visited")
	for i := range man.Segments {
		si := &man.Segments[i]
		visited := fmt.Sprint(si.Visited)
		if si.VisitedOverflow {
			visited += "+"
		}
		bloom := "-"
		if len(si.Bloom) > 0 {
			bloom = fmt.Sprintf("%dB", len(si.Bloom))
		}
		// Full 64-bit hashes: replay -device matches against these, so
		// the listing must print values it can actually be fed.
		fmt.Fprintf(stdout, "%-18s %8d %10d [%4d,%4d] [%016x,%016x] %6s %s\n",
			si.Name, si.Records, si.Bytes, si.MinDay, si.MaxDay,
			si.MinDevice, si.MaxDevice, bloom, visited)
	}
	for _, tname := range r.Torn() {
		fmt.Fprintf(stdout, "%-18s TORN (not sealed by the manifest)\n", tname)
	}
	return nil
}

func cmdVerify(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	dir := fs.String("dir", "", "store directory (required)")
	r, err := openStore(fs, args, dir)
	if err != nil {
		return err
	}
	rep := r.Verify()
	fmt.Fprint(stdout, rep)
	if !rep.OK() {
		return fmt.Errorf("verify: %s has torn or corrupt segments", *dir)
	}
	return nil
}

func cmdReplay(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	var (
		dir     = fs.String("dir", "", "store directory (required)")
		minDay  = fs.Int("min-day", -1, "keep only records from this window day on")
		maxDay  = fs.Int("max-day", -1, "keep only records up to this window day")
		device  = fs.String("device", "", "keep only this device-ID hash (hex)")
		visited = fs.String("visited", "", "keep only records on this visited PLMN")
		workers = fs.Int("workers", runtime.GOMAXPROCS(0), "replay worker pool size (catalog is identical for any value)")
		out     = fs.String("out", "", "write the replayed devices-catalog as CSV")
		noBloom = fs.Bool("no-bloom", false, "disable bloom-filter segment pruning")
	)
	r, err := openStore(fs, args, dir)
	if err != nil {
		return err
	}
	f, err := dayQuery("replay", *minDay, *maxDay, r.Manifest().Days-1)
	if err != nil {
		return err
	}
	if *device != "" {
		// strconv rejects trailing garbage, unlike Sscanf %x — a typo
		// must error out, not silently filter on the wrong device.
		dev, err := strconv.ParseUint(strings.TrimPrefix(*device, "0x"), 16, 64)
		if err != nil {
			return cli.Usagef("replay: bad -device %q: %v", *device, err)
		}
		f = f.Device(identity.DeviceID(dev))
	}
	if *visited != "" {
		p, err := mccmnc.Parse(*visited)
		if err != nil {
			return cli.Usagef("replay: bad -visited %q: %v", *visited, err)
		}
		f = f.VisitedHost(p)
	}
	if *noBloom {
		f = f.WithoutBloom()
	}
	var fh *cli.File
	if *out != "" {
		if fh, err = cli.Create(*out); err != nil {
			return err
		}
		defer fh.Discard()
	}

	start := time.Now()
	cat, stats, err := r.Replay(f, *workers)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "replayed %d/%d records into %d catalog rows in %v\n",
		stats.RecordsKept, stats.RecordsRead, len(cat.Records), time.Since(start).Round(time.Millisecond))
	fmt.Fprintf(stdout, "segments: %d read, %d pruned (%d by bloom), %d torn-skipped of %d; %d body bytes read\n",
		stats.SegmentsRead, stats.SegmentsPruned, stats.SegmentsPrunedBloom,
		stats.SegmentsTorn, stats.SegmentsTotal, stats.BytesRead)
	if fh == nil {
		return nil
	}
	if err := cat.WriteCSV(fh); err != nil {
		return err
	}
	if err := fh.Commit(); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s\n", *out)
	return nil
}

// cmdCompact merges N input stores into one time-ordered store, or
// with -plan prints the merge plan without reading a segment body.
func cmdCompact(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("compact", flag.ContinueOnError)
	var (
		out     = fs.String("out", "", "output store directory to create (required)")
		minDay  = fs.Int("min-day", -1, "compact only records from this window day on")
		maxDay  = fs.Int("max-day", -1, "compact only records up to this window day")
		segRecs = fs.Int("segment", 0, "output records per segment (0 = store default)")
		fanIn   = fs.Int("fanin", 0, "merge fan-in, 0 (the default) or at least 2; output is identical at any value")
		plan    = fs.Bool("plan", false, "print the merge plan and exit without compacting")
	)
	if err := fs.Parse(args); err != nil {
		return cli.Usagef("%w", err)
	}
	if *segRecs < 0 || *fanIn < 0 || *fanIn == 1 {
		return cli.Usagef("compact: need -segment >= 0 and -fanin 0 or >= 2 (got %d, %d)", *segRecs, *fanIn)
	}
	q, err := dayQuery("compact", *minDay, *maxDay, 1<<31-1)
	if err != nil {
		return err
	}
	opts := store.CompactOptions{SegmentRecords: *segRecs, MaxFanIn: *fanIn, Query: q}
	inputs := fs.Args()
	if len(inputs) == 0 {
		return cli.Usagef("compact: need at least one input store directory")
	}
	if *out == "" && !*plan {
		return cli.Usagef("compact: -out is required (or use -plan for a dry run)")
	}

	if *plan {
		p, err := store.PlanCompact(inputs, opts)
		if err != nil {
			return err
		}
		host := p.Meta.Host.Concat()
		if p.Meta.Host.IsZero() {
			host = "(mixed)"
		}
		fmt.Fprintf(stdout, "plan: kind=%s host=%s days=%d segment=%d fanin=%d\n",
			p.Kind, host, p.Meta.Days, p.SegmentRecords, p.MaxFanIn)
		for _, in := range p.Inputs {
			fmt.Fprintf(stdout, "  %-40s %4d/%-4d segments selected  %9d records\n",
				in.Dir, in.Selected, in.Segments, in.Records)
		}
		fmt.Fprintf(stdout, "merge: %d runs in %d pass(es), %d records\n", p.Runs, p.Passes, p.Records)
		return nil
	}

	start := time.Now()
	stats, err := store.Compact(*out, inputs, opts)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "compacted %d records from %d segments (%d pruned) across %d stores\n",
		stats.RecordsOut, stats.SegmentsIn, stats.SegmentsPruned, len(inputs))
	fmt.Fprintf(stdout, "wrote %d time-ordered segments to %s in %d pass(es), %v\n",
		stats.SegmentsOut, *out, stats.Passes, time.Since(start).Round(time.Millisecond))
	return nil
}
