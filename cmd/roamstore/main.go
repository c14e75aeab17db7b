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
	"log"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"whereroam/internal/dataset"
	"whereroam/internal/identity"
	"whereroam/internal/mccmnc"
	"whereroam/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("roamstore: ")
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "write":
		cmdWrite(os.Args[2:])
	case "ls":
		cmdLs(os.Args[2:])
	case "verify":
		cmdVerify(os.Args[2:])
	case "replay":
		cmdReplay(os.Args[2:])
	case "compact":
		cmdCompact(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: roamstore <write|ls|verify|replay|compact> [flags]
  write   archive a synthetic SMIP CDR/xDR feed while its catalog builds
  ls      list the store manifest: segments, index ranges, torn files
  verify  re-read every sealed segment; report torn and corrupt segments
  replay  rebuild the devices-catalog from the store, with pruning flags
  compact merge N input stores into one time-ordered store (-plan = dry run)`)
	os.Exit(2)
}

// badFlags reports a rejected flag combination the way flag parsing
// does: one line on stderr and exit status 2, before anything is
// created.
func badFlags(format string, args ...any) {
	log.Printf(format, args...)
	os.Exit(2)
}

// dayQuery is the query for the -min-day/-max-day window (negative
// means unset: day 0 and lastDay), rejecting a window that is inverted
// or starts after lastDay.
func dayQuery(cmd string, minDay, maxDay, lastDay int) store.Query {
	if minDay < 0 && maxDay < 0 {
		return store.Query{}
	}
	lo, hi := max(minDay, 0), maxDay
	if hi < 0 {
		hi = lastDay
	}
	if lo > lastDay {
		badFlags("%s: -min-day %d is past the window's last day %d", cmd, lo, lastDay)
	}
	if lo > hi {
		badFlags("%s: -min-day %d is after -max-day %d", cmd, lo, hi)
	}
	return store.Query{}.Days(lo, hi)
}

// cmdWrite runs the persist-and-ingest path: the §7 streaming
// generator builds its catalog live while every CDR/xDR fans out to
// the archive.
func cmdWrite(args []string) {
	fs := flag.NewFlagSet("write", flag.ExitOnError)
	var (
		dir     = fs.String("dir", "", "store directory to create (required)")
		native  = fs.Int("native", 2000, "SMIP-native meters")
		roaming = fs.Int("roaming", 1500, "roaming meters on global IoT SIMs")
		days    = fs.Int("days", 10, "observation window in days")
		seed    = fs.Uint64("seed", 1, "generator seed")
		segRecs = fs.Int("segment", 0, "records per segment (0 = store default)")
		workers = fs.Int("workers", runtime.GOMAXPROCS(0), "emission worker pool size")
	)
	fs.Parse(args)
	if *dir == "" {
		log.Fatal("write: -dir is required")
	}
	if *days <= 0 || *native < 0 || *roaming < 0 || *segRecs < 0 {
		badFlags("write: need -days > 0, -native and -roaming >= 0, -segment >= 0 (got %d, %d, %d, %d)",
			*days, *native, *roaming, *segRecs)
	}

	cfg := dataset.DefaultSMIPConfig()
	cfg.NativeMeters, cfg.RoamingMeters = *native, *roaming
	cfg.Days, cfg.Seed, cfg.Workers = *days, *seed, *workers

	w, err := store.NewWriter(*dir, store.Meta{Host: cfg.Host, Start: cfg.Start, Days: cfg.Days}, *segRecs)
	if err != nil {
		log.Fatal(err)
	}
	cfg.ArchiveCDRs = w.Sink()
	start := time.Now()
	ds := dataset.GenerateSMIPStreaming(cfg)
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("archived %d records into %d segments at %s (catalog built live: %d records) in %v\n",
		w.Count(), w.Segments(), *dir, len(ds.Catalog.Records), time.Since(start).Round(time.Millisecond))
}

func openStore(fs *flag.FlagSet, args []string, dir *string) *store.Reader {
	fs.Parse(args)
	if *dir == "" {
		log.Fatalf("%s: -dir is required", fs.Name())
	}
	r, err := store.Open(*dir)
	if err != nil {
		log.Fatal(err)
	}
	return r
}

func cmdLs(args []string) {
	fs := flag.NewFlagSet("ls", flag.ExitOnError)
	dir := fs.String("dir", "", "store directory (required)")
	r := openStore(fs, args, dir)
	man := r.Manifest()
	fmt.Printf("store %s: kind=%s host=%s start=%s days=%d segments=%d records=%d\n",
		*dir, man.Kind, man.Host, man.Start.Format(time.RFC3339), man.Days,
		len(man.Segments), man.TotalRecords)
	mi := r.ManifestInfo()
	line := fmt.Sprintf("manifest v%d: checkpoint=%d segments, log tail=%d entries",
		mi.Version, mi.CheckpointSegments, mi.TailSegments)
	if mi.TornLogTail {
		line += " (torn log tail discarded)"
	}
	fmt.Println(line)
	fmt.Printf("%-18s %8s %10s %11s %35s %6s %s\n", "segment", "records", "bytes", "days", "devices", "bloom", "visited")
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
		fmt.Printf("%-18s %8d %10d [%4d,%4d] [%016x,%016x] %6s %s\n",
			si.Name, si.Records, si.Bytes, si.MinDay, si.MaxDay,
			si.MinDevice, si.MaxDevice, bloom, visited)
	}
	for _, tname := range r.Torn() {
		fmt.Printf("%-18s TORN (not sealed by the manifest)\n", tname)
	}
}

func cmdVerify(args []string) {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	dir := fs.String("dir", "", "store directory (required)")
	r := openStore(fs, args, dir)
	rep := r.Verify()
	fmt.Print(rep)
	if !rep.OK() {
		os.Exit(1)
	}
}

func cmdReplay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
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
	r := openStore(fs, args, dir)

	f := dayQuery("replay", *minDay, *maxDay, r.Manifest().Days-1)
	if *device != "" {
		// strconv rejects trailing garbage, unlike Sscanf %x — a typo
		// must error out, not silently filter on the wrong device.
		dev, err := strconv.ParseUint(strings.TrimPrefix(*device, "0x"), 16, 64)
		if err != nil {
			log.Fatalf("replay: bad -device %q: %v", *device, err)
		}
		f = f.Device(identity.DeviceID(dev))
	}
	if *visited != "" {
		p, err := mccmnc.Parse(*visited)
		if err != nil {
			log.Fatalf("replay: bad -visited %q: %v", *visited, err)
		}
		f = f.VisitedHost(p)
	}
	if *noBloom {
		f = f.WithoutBloom()
	}

	start := time.Now()
	cat, stats, err := r.Replay(f, *workers)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replayed %d/%d records into %d catalog rows in %v\n",
		stats.RecordsKept, stats.RecordsRead, len(cat.Records), time.Since(start).Round(time.Millisecond))
	fmt.Printf("segments: %d read, %d pruned (%d by bloom), %d torn-skipped of %d; %d body bytes read\n",
		stats.SegmentsRead, stats.SegmentsPruned, stats.SegmentsPrunedBloom,
		stats.SegmentsTorn, stats.SegmentsTotal, stats.BytesRead)
	if *out != "" {
		fh, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		if err := cat.WriteCSV(fh); err != nil {
			log.Fatal(err)
		}
		if err := fh.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}
}

// cmdCompact merges N input stores into one time-ordered store, or
// with -plan prints the merge plan without reading a segment body.
func cmdCompact(args []string) {
	fs := flag.NewFlagSet("compact", flag.ExitOnError)
	var (
		out     = fs.String("out", "", "output store directory to create (required)")
		minDay  = fs.Int("min-day", -1, "compact only records from this window day on")
		maxDay  = fs.Int("max-day", -1, "compact only records up to this window day")
		segRecs = fs.Int("segment", 0, "output records per segment (0 = store default)")
		fanIn   = fs.Int("fanin", 0, "merge fan-in (0 = default; output is identical at any value)")
		plan    = fs.Bool("plan", false, "print the merge plan and exit without compacting")
	)
	fs.Parse(args)
	opts := store.CompactOptions{SegmentRecords: *segRecs, MaxFanIn: *fanIn,
		Query: dayQuery("compact", *minDay, *maxDay, 1<<31-1)}
	inputs := fs.Args()
	if len(inputs) == 0 {
		log.Fatal("compact: need at least one input store directory")
	}
	if *out == "" && !*plan {
		log.Fatal("compact: -out is required (or use -plan for a dry run)")
	}

	if *plan {
		p, err := store.PlanCompact(inputs, opts)
		if err != nil {
			log.Fatal(err)
		}
		host := p.Meta.Host.Concat()
		if p.Meta.Host.IsZero() {
			host = "(mixed)"
		}
		fmt.Printf("plan: kind=%s host=%s days=%d segment=%d fanin=%d\n",
			p.Kind, host, p.Meta.Days, p.SegmentRecords, p.MaxFanIn)
		for _, in := range p.Inputs {
			fmt.Printf("  %-40s %4d/%-4d segments selected  %9d records\n",
				in.Dir, in.Selected, in.Segments, in.Records)
		}
		fmt.Printf("merge: %d runs in %d pass(es), %d records\n", p.Runs, p.Passes, p.Records)
		return
	}

	start := time.Now()
	stats, err := store.Compact(*out, inputs, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("compacted %d records from %d segments (%d pruned) across %d stores\n",
		stats.RecordsOut, stats.SegmentsIn, stats.SegmentsPruned, len(inputs))
	fmt.Printf("wrote %d time-ordered segments to %s in %d pass(es), %v\n",
		stats.SegmentsOut, *out, stats.Passes, time.Since(start).Round(time.Millisecond))
}
