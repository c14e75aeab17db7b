// Command roamd serves catalog, classification and analysis queries
// over archived CDR stores. It mounts every site-<plmn> store under
// an archive root (the layout fedsim -archive writes), builds hot
// catalog slices on demand via pruned replay, and keeps them in a
// size-bounded LRU behind an HTTP/JSON API.
//
// Usage:
//
//	roamd -archive DIR [-addr :8080] [-cache-mb -1] [-workers N]
//	      [-metrics] [-pprof] [-slow-ms 250]
//
// Endpoints (all GET):
//
//	/v1/healthz                          liveness
//	/v1/sites                            mounted sites
//	/v1/sites/{site}/stats               whole-window operator stats
//	/v1/sites/{site}/days?lo=&hi=        day-range summary
//	/v1/sites/{site}/devices[?limit=]    device hashes
//	/v1/sites/{site}/devices/{device}    single-device lookup
//	/v1/sites/{site}/analysis/{series}   analysis series
//	/v1/compare                          cross-site comparison
//	/metrics                             Prometheus text exposition (-metrics)
//	/debug/spans                         recent traced operations (-metrics)
//	/debug/pprof/*                       runtime profiles (-pprof)
//
// SIGINT or SIGTERM stops the listener, lets in-flight requests finish
// (up to ten seconds) and exits 0.
//
// -cache-mb defaults to -1: derive the slice-cache bound from the
// process's GOMEMLIMIT (a quarter of the limit, clamped), falling
// back to 256 MiB when no limit is set.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"whereroam/internal/obs"
	"whereroam/internal/serve"
)

// The listener's limits. There is no write timeout: a cold fill
// replays and classifies a slice before the first byte and may
// legitimately take seconds.
const (
	readHeaderTimeout = 5 * time.Second
	idleTimeout       = 2 * time.Minute
	maxHeaderBytes    = 64 << 10
	// drainTimeout bounds how long SIGINT/SIGTERM waits for in-flight
	// requests before the process exits non-zero.
	drainTimeout = 10 * time.Second
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("roamd: ")
	var (
		archive = flag.String("archive", "", "archive root containing site-<plmn> store directories (required)")
		addr    = flag.String("addr", ":8080", "listen address")
		cacheMB = flag.Int("cache-mb", -1, "slice cache bound in MiB (0 = unbounded, -1 = auto from GOMEMLIMIT)")
		workers = flag.Int("workers", runtime.GOMAXPROCS(0), "replay parallelism per slice fill")
		metrics = flag.Bool("metrics", true, "expose /metrics and /debug/spans")
		pprofOn = flag.Bool("pprof", false, "expose /debug/pprof/* profiling endpoints")
		slowMS  = flag.Int("slow-ms", 250, "log traced operations slower than this many milliseconds")
	)
	flag.Parse()
	if *archive == "" {
		fmt.Fprintln(os.Stderr, "usage: roamd -archive DIR [-addr :8080] [-cache-mb -1] [-workers N] [-metrics] [-pprof] [-slow-ms 250]")
		os.Exit(2)
	}

	cacheBytes := int64(*cacheMB) << 20
	if *cacheMB < 0 {
		cacheBytes = serve.AutoCacheBytes(debug.SetMemoryLimit(-1))
		log.Printf("cache bound auto-derived: %d MiB", cacheBytes>>20)
	}

	cfg := serve.Config{
		Workers:       *workers,
		MaxCacheBytes: cacheBytes,
	}
	var reg *obs.Registry
	var tracer *obs.Tracer
	if *metrics {
		reg = obs.NewRegistry()
		tracer = obs.NewTracer(256, time.Duration(*slowMS)*time.Millisecond, log.Printf)
		cfg.Metrics = reg
		cfg.Tracer = tracer
	}

	srv := serve.New(cfg)
	names, err := srv.MountSites(*archive)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("mounted %d sites from %s: %s", len(names), *archive, strings.Join(names, " "))
	for _, si := range srv.Sites() {
		log.Printf("  site %s: host=%s days=%d segments=%d records=%d",
			si.Site, si.Host, si.Days, si.Segments, si.Records)
	}

	mux := http.NewServeMux()
	mux.Handle("/v1/", srv.Handler())
	if *metrics {
		mux.Handle("GET /metrics", reg.Handler())
		mux.Handle("GET /debug/spans", tracer.Handler())
		log.Print("metrics on /metrics, spans on /debug/spans")
	}
	if *pprofOn {
		obs.RegisterPprof(mux)
		log.Print("profiling on /debug/pprof/")
	}

	hs := &http.Server{
		Addr:              *addr,
		Handler:           mux,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	served := make(chan error, 1)
	go func() { served <- hs.ListenAndServe() }()
	log.Printf("serving on %s", *addr)

	select {
	case err := <-served:
		log.Fatal(err) // the listener failed: nothing is in flight to drain
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way
	log.Printf("signal received: draining for up to %s", drainTimeout)
	drain, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := hs.Shutdown(drain); err != nil {
		log.Fatalf("drain: %v", err)
	}
	<-served // http.ErrServerClosed, once Shutdown has begun
	log.Print("stopped")
}
