// Command roamload drives a live roamd with a closed-loop mixed
// workload — zipfian-popular device lookups, day-slice summaries,
// stats, analysis and comparison queries — and reports p50/p99
// latency and throughput.
//
// Usage:
//
//	roamload -addr http://127.0.0.1:8080 [-duration 5s] [-concurrency 4]
//	         [-seed 1] [-zipf 1.2] [-min-qps 0]
//
// The exit status is non-zero when any request returned a 4xx/5xx or
// the measured qps fell below -min-qps, so CI smoke jobs can assert
// "non-zero qps, zero 5xx" from the exit code alone.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	"whereroam/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("roamload: ")
	var (
		addr        = flag.String("addr", "", "base URL of the roamd under test (required)")
		duration    = flag.Duration("duration", 5*time.Second, "load duration")
		concurrency = flag.Int("concurrency", 4, "closed-loop workers")
		seed        = flag.Int64("seed", 1, "request-stream seed")
		zipf        = flag.Float64("zipf", 1.2, "zipfian device-popularity skew (>1)")
		minQPS      = flag.Float64("min-qps", 0, "fail when measured qps falls below this")
	)
	flag.Parse()
	if *addr == "" {
		fmt.Fprintln(os.Stderr, "usage: roamload -addr URL [-duration 5s] [-concurrency 4] [-min-qps 0]")
		os.Exit(2)
	}

	res, err := serve.RunLoad(serve.LoadConfig{
		BaseURL:     *addr,
		Concurrency: *concurrency,
		Duration:    *duration,
		Seed:        *seed,
		ZipfS:       *zipf,
	})
	if err != nil {
		log.Fatal(err)
	}

	log.Printf("%d requests in %.2fs → %.1f qps (5xx=%d 4xx=%d transport=%d)",
		res.Requests, res.Seconds, res.QPS, res.Errors5xx, res.Errors4xx, res.TransportErrors)
	ops := make([]string, 0, len(res.Ops))
	for op := range res.Ops {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		o := res.Ops[op]
		log.Printf("  %-14s count=%-6d p50=%s p99=%s mean=%s",
			o.Op, o.Count, time.Duration(o.P50Ns), time.Duration(o.P99Ns), time.Duration(o.MeanNs))
	}

	// Cross-check the client-observed latency against the daemon's own
	// histogram. The scrape quietly skips when the daemon runs with
	// -metrics=false (ok is false, no error).
	if d, ok, err := serve.ScrapeHistogramQuantile(nil, *addr, "roamd_http_latency_seconds", 0.99); err != nil {
		log.Printf("server-side p99 scrape failed: %v", err)
	} else if ok {
		log.Printf("server-side p99 (roamd_http_latency_seconds): %s", d)
	}

	failed := false
	if res.Errors5xx > 0 || res.Errors4xx > 0 || res.TransportErrors > 0 {
		log.Printf("FAIL: request errors (5xx=%d 4xx=%d transport=%d)",
			res.Errors5xx, res.Errors4xx, res.TransportErrors)
		failed = true
	}
	if res.Requests == 0 || res.QPS <= 0 {
		log.Print("FAIL: no completed requests")
		failed = true
	}
	if *minQPS > 0 && res.QPS < *minQPS {
		log.Printf("FAIL: qps %.1f below floor %.1f", res.QPS, *minQPS)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
}
