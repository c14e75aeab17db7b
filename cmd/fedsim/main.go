// Command fedsim drives a multi-operator federation: one shared GSMA
// catalog, operator world, global roamer fleet and per-day presence
// schedule, observed independently by N visited MNOs, with cross-site
// label and classifier validation — the paper's Table 1/§5
// observation that many visited operators see the same global IoT
// fleets — plus the federated SMIP (§4.4/§7) and M2M (§3/§6) planes
// derived from the same fleet and schedule. -archive writes the
// site-<plmn> stores roamd mounts; roamstore verifies and replays them.
//
// Usage:
//
//	fedsim                          # default 3-site federation, all fed-* experiments
//	fedsim -sites 2                 # first N default hosts
//	fedsim -hosts 23410,26202      # explicit visited MNOs
//	fedsim -gen -max-heap-mib 512   # generation only, self-asserting the heap peak
//	fedsim -archive /data/fed       # persist each site's CDR feed to /data/fed/site-<plmn>
//	fedsim -experiment fed-smip     # one experiment (fed-sites, fed-agreement,
//	                                # fed-validation, fed-smip, fed-m2m)
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"strings"
	"time"

	"whereroam/internal/dataset"
	"whereroam/internal/experiments"
	"whereroam/internal/mccmnc"
	"whereroam/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fedsim: ")
	var (
		id      = flag.String("experiment", "all", `fed-* experiment id or "all"`)
		seed    = flag.Uint64("seed", 1, "generator seed")
		scale   = flag.Float64("scale", 0.5, "population scale factor")
		sites   = flag.Int("sites", 0, "use the first N default federation hosts (0 = all)")
		hosts   = flag.String("hosts", "", "comma-separated visited-MNO PLMNs (overrides -sites)")
		workers = flag.Int("workers", runtime.GOMAXPROCS(0), "pipeline worker pool size (results are identical for any value)")
		genOnly = flag.Bool("gen", false, "generate the federation dataset and print its shape without running experiments")
		heapMiB = flag.Int64("max-heap-mib", 0, "fail if the process heap peak exceeds this many MiB (0 = no assertion)")
		archive = flag.String("archive", "", "persist each site's CDR/xDR feed to a per-site store under this directory")
		archSeg = flag.Int("archive-segment", 0, "records per archive segment (0 = store default); small values give tiny archives many prunable segments")
	)
	flag.Parse()

	plmns, err := resolveHosts(*hosts, *sites)
	if err != nil {
		log.Fatal(err)
	}

	var stopWatch func() int64
	if *heapMiB > 0 {
		stopWatch = obs.StartHeapWatch()
	}
	assertHeap := func() {
		if stopWatch == nil {
			return
		}
		peak := stopWatch() >> 20
		if peak > *heapMiB {
			log.Fatalf("heap peak %d MiB exceeds budget %d MiB", peak, *heapMiB)
		}
		log.Printf("heap peak %d MiB within budget %d MiB", peak, *heapMiB)
	}

	sess := experiments.NewFederation(*seed, *scale, *workers, plmns...)
	sess.ArchiveDir = *archive
	sess.ArchiveSegmentRecords = *archSeg

	if *genOnly {
		start := time.Now()
		fed := sess.FederationData()
		records := 0
		for _, site := range fed.Sites {
			records += len(site.Catalog.Records)
		}
		fmt.Printf("generated %d sites, %d catalog records in %v\n",
			len(fed.Sites), records, time.Since(start).Round(time.Millisecond))
		assertHeap()
		return
	}

	var runners []experiments.Runner
	for _, r := range experiments.All() {
		if !strings.HasPrefix(r.ID, "fed-") {
			continue
		}
		if *id == "all" || *id == r.ID {
			runners = append(runners, r)
		}
	}
	if len(runners) == 0 {
		log.Printf("unknown federation experiment %q; available:", *id)
		for _, r := range experiments.All() {
			if strings.HasPrefix(r.ID, "fed-") {
				log.Printf("  %s", r.ID)
			}
		}
		os.Exit(2)
	}
	for _, r := range runners {
		start := time.Now()
		rep := r.Run(sess)
		fmt.Println(rep)
		fmt.Printf("(%s ran in %v)\n\n", r.ID, time.Since(start).Round(time.Millisecond))
	}
	assertHeap()
}

// resolveHosts turns the -hosts / -sites flags into the federation's
// visited-MNO list (nil = the default footprint).
func resolveHosts(hosts string, sites int) ([]mccmnc.PLMN, error) {
	if hosts != "" {
		var out []mccmnc.PLMN
		for _, s := range strings.Split(hosts, ",") {
			p, err := mccmnc.Parse(strings.TrimSpace(s))
			if err != nil {
				return nil, fmt.Errorf("bad -hosts entry %q: %v", s, err)
			}
			for _, prev := range out {
				if prev == p {
					return nil, fmt.Errorf("-hosts lists %v twice", p)
				}
			}
			out = append(out, p)
		}
		return out, nil
	}
	def := dataset.DefaultFederationHosts()
	if sites <= 0 || sites >= len(def) {
		return nil, nil
	}
	return def[:sites], nil
}
