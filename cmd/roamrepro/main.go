// Command roamrepro regenerates the paper's tables and figures from
// the synthetic datasets and prints them in the harness's text form.
// The fed-* experiments observe one shared fleet from N visited MNOs;
// -archive writes each site's CDR feed to the site-<plmn> stores roamd
// mounts.
//
// Usage:
//
//	roamrepro                                # run every experiment
//	roamrepro -experiment fig11              # one experiment
//	roamrepro -scale 1.0 -seed 7             # bigger population, other seed
//	roamrepro -hosts 23410,26202             # federation sites (or -sites N)
//	roamrepro -experiment fed-sites -archive /data/fed -max-heap-mib 384
//	roamrepro -list                          # show experiment ids
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"runtime"
	"slices"
	"strings"
	"time"

	"whereroam/internal/cli"
	"whereroam/internal/dataset"
	"whereroam/internal/experiments"
	"whereroam/internal/mccmnc"
	"whereroam/internal/obs"
)

func main() { cli.Main("roamrepro", run) }

func run(args []string, stdout io.Writer) (err error) {
	sess := experiments.NewSessionWorkers(1, 0.5, runtime.GOMAXPROCS(0))
	fs := flag.NewFlagSet("roamrepro", flag.ContinueOnError)
	id := fs.String("experiment", "all", "experiment id or 'all'")
	fs.Uint64Var(&sess.Seed, "seed", sess.Seed, "generator seed")
	fs.Float64Var(&sess.Factor, "scale", sess.Factor, "population scale factor (1.0 ≈ a tenth of paper scale)")
	fs.IntVar(&sess.Workers, "workers", sess.Workers, "pipeline worker pool size (results are identical for any value)")
	sites := fs.Int("sites", 0, "federation sites for the fed-* experiments: the first N default hosts (0 = all)")
	hosts := fs.String("hosts", "", "comma-separated visited-MNO PLMNs for the fed-* experiments (overrides -sites)")
	archive := fs.String("archive", "", "persist each federation site's CDR/xDR feed to a per-site store under this directory")
	segment := fs.Int("archive-segment", 0, "records per archive segment (0 = store default); small values give tiny archives many prunable segments")
	heapMiB := fs.Int64("max-heap-mib", 0, "fail if the process heap peak exceeds this many MiB (0 = no assertion)")
	list := fs.Bool("list", false, "list experiment ids and exit")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if *list {
		for _, r := range experiments.All() {
			fmt.Fprintf(stdout, "%-15s %s\n", r.ID, r.Title)
		}
		return nil
	}
	if !(sess.Factor > 0) || math.IsInf(sess.Factor, 1) { // NaN fails too
		return cli.Usagef("-scale %v is not a positive factor", sess.Factor)
	}
	if sess.Hosts, err = resolveHosts(*hosts, *sites); err != nil {
		return err
	}
	runners := experiments.All()
	if *id != "all" {
		r, ok := experiments.ByID(*id)
		if !ok {
			return cli.Usagef("unknown experiment %q (-list shows the ids)", *id)
		}
		runners = []experiments.Runner{r}
	}

	defer obs.HeapBudget(*heapMiB)(&err)
	if *archive != "" {
		if err := dataset.ArchiveFederation(sess.FederationData(), *archive, *segment); err != nil {
			return err
		}
	}
	for i, r := range runners {
		if i > 0 {
			// A runner's dataset is garbage once the session has taken
			// its view, but the collector paces by the heap it last saw
			// live, so without a collection here the next runner's build
			// stacks on the dropped one. Outside the timed span.
			runtime.GC()
		}
		start := time.Now()
		rep := r.Run(sess)
		fmt.Fprintln(stdout, rep)
		fmt.Fprintf(stdout, "(%s ran in %v)\n\n", r.ID, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// resolveHosts turns the -hosts / -sites flags into the federation's
// visited-MNO list.
func resolveHosts(hosts string, sites int) ([]mccmnc.PLMN, error) {
	if hosts == "" {
		def := dataset.DefaultFederationHosts()
		if sites > 0 && sites < len(def) {
			def = def[:sites]
		}
		return def, nil
	}
	var out []mccmnc.PLMN
	for _, s := range strings.Split(hosts, ",") {
		p, err := mccmnc.Parse(strings.TrimSpace(s))
		if err != nil {
			return nil, cli.Usagef("bad -hosts entry %q: %v", s, err)
		}
		if slices.Contains(out, p) {
			return nil, cli.Usagef("-hosts lists %v twice", p)
		}
		out = append(out, p)
	}
	return out, nil
}
