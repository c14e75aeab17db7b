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
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"sort"
	"time"

	"whereroam/internal/cli"
	"whereroam/internal/serve"
)

func main() { cli.Main("roamload", run) }

func run(args []string, stdout io.Writer) error {
	var cfg serve.LoadConfig
	fs := flag.NewFlagSet("roamload", flag.ContinueOnError)
	fs.StringVar(&cfg.BaseURL, "addr", "", "base URL of the roamd under test (required)")
	fs.DurationVar(&cfg.Duration, "duration", 5*time.Second, "load duration")
	fs.IntVar(&cfg.Concurrency, "concurrency", 4, "closed-loop workers")
	fs.Int64Var(&cfg.Seed, "seed", 1, "request-stream seed")
	fs.Float64Var(&cfg.ZipfS, "zipf", 1.2, "zipfian device-popularity skew (>1)")
	minQPS := fs.Float64("min-qps", 0, "fail when measured qps falls below this")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if cfg.BaseURL == "" {
		return cli.Usagef("-addr is required")
	}

	res, err := serve.RunLoad(cfg)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "%d requests in %.2fs → %.1f qps (5xx=%d 4xx=%d transport=%d)\n",
		res.Requests, res.Seconds, res.QPS, res.Errors5xx, res.Errors4xx, res.TransportErrors)
	ops := make([]string, 0, len(res.Ops))
	for op := range res.Ops {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		o := res.Ops[op]
		fmt.Fprintf(stdout, "  %-14s count=%-6d p50=%s p99=%s mean=%s\n",
			o.Op, o.Count, time.Duration(o.P50Ns), time.Duration(o.P99Ns), time.Duration(o.MeanNs))
	}

	// Cross-check the client-observed latency against the daemon's own
	// histogram. The scrape quietly skips when the daemon runs with
	// -metrics=false (ok is false, no error).
	if d, ok, err := serve.ScrapeHistogramQuantile(nil, cfg.BaseURL, "roamd_http_latency_seconds", 0.99); err != nil {
		slog.Warn("server-side p99 scrape failed", "err", err)
	} else if ok {
		fmt.Fprintf(stdout, "server-side p99 (roamd_http_latency_seconds): %s\n", d)
	}

	switch {
	case res.Errors5xx > 0 || res.Errors4xx > 0 || res.TransportErrors > 0:
		return errors.New("requests failed (see the error counts above)")
	case res.Requests == 0 || res.QPS <= 0:
		return errors.New("no completed requests")
	case *minQPS > 0 && res.QPS < *minQPS:
		return fmt.Errorf("qps %.1f below floor %.1f", res.QPS, *minQPS)
	}
	return nil
}
