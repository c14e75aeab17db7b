// Command roamd serves catalog, classification and analysis queries
// over archived CDR stores. It mounts every site-<plmn> store under
// an archive root (the layout roamrepro -archive writes), builds hot
// catalog slices on demand via pruned replay, and keeps them in a
// size-bounded LRU behind an HTTP/JSON API.
//
// Usage:
//
//	roamd -archive DIR [-addr :8080] [-cache-mb -1] [-metrics]
//	      [-pprof] [-slow-ms 250]
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
//
// A slice fill (replay, summaries, classification) runs serially on
// the goroutine of the request that missed the cache; concurrent
// requests are what run in parallel, so there is no -workers flag.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os/signal"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"whereroam/internal/cli"
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
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	context.AfterFunc(ctx, stop) // a second signal kills the process the default way
	cli.Main("roamd", func(args []string, _ io.Writer) error { return run(ctx, args, net.Listen) })
}

// run serves until ctx is cancelled, then drains in-flight requests
// and returns nil. listen opens the -addr listener (net.Listen in
// production); an error from it, or from serving, is returned at once.
func run(ctx context.Context, args []string, listen func(network, addr string) (net.Listener, error)) error {
	var cfg serve.Config
	fs := flag.NewFlagSet("roamd", flag.ContinueOnError)
	archive := fs.String("archive", "", "archive root containing site-<plmn> store directories (required)")
	addr := fs.String("addr", ":8080", "listen address")
	cacheMB := fs.Int("cache-mb", -1, "slice cache bound in MiB (0 = unbounded, -1 = auto from GOMEMLIMIT)")
	metrics := fs.Bool("metrics", true, "expose /metrics and /debug/spans")
	pprofOn := fs.Bool("pprof", false, "expose /debug/pprof/* profiling endpoints")
	slowMS := fs.Int("slow-ms", 250, "log traced operations slower than this many milliseconds")
	if err := cli.Parse(fs, args); err != nil {
		return err
	}
	if *archive == "" {
		return cli.Usagef("-archive is required")
	}

	cfg.MaxCacheBytes = int64(*cacheMB) << 20
	if *cacheMB < 0 {
		cfg.MaxCacheBytes = serve.AutoCacheBytes(debug.SetMemoryLimit(-1))
		slog.Info("cache bound auto-derived", "mib", cfg.MaxCacheBytes>>20)
	}
	mux := http.NewServeMux()
	if *metrics {
		logf := func(format string, args ...any) { slog.Warn(fmt.Sprintf(format, args...)) }
		cfg.Metrics = obs.NewRegistry()
		cfg.Tracer = obs.NewTracer(256, time.Duration(*slowMS)*time.Millisecond, logf)
		mux.Handle("GET /metrics", cfg.Metrics.Handler())
		mux.Handle("GET /debug/spans", cfg.Tracer.Handler())
		slog.Info("metrics on /metrics, spans on /debug/spans")
	}

	srv := serve.New(cfg)
	names, err := srv.MountSites(*archive)
	if err != nil {
		return err
	}
	slog.Info("mounted", "sites", len(names), "archive", *archive, "names", strings.Join(names, " "))
	for _, si := range srv.Sites() {
		slog.Info("site", "site", si.Site, "host", si.Host, "days", si.Days,
			"segments", si.Segments, "records", si.Records)
	}
	mux.Handle("/v1/", srv.Handler())
	if *pprofOn {
		obs.RegisterPprof(mux)
		slog.Info("profiling on /debug/pprof/")
	}

	ln, err := listen("tcp", *addr)
	if err != nil {
		return err
	}
	hs := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: readHeaderTimeout,
		IdleTimeout:       idleTimeout,
		MaxHeaderBytes:    maxHeaderBytes,
	}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	slog.Info("serving", "addr", ln.Addr().String())

	select {
	case err := <-served:
		return err // the listener failed: nothing is in flight to drain
	case <-ctx.Done():
	}
	slog.Info("draining", "timeout", drainTimeout)
	drain, cancel := context.WithTimeout(context.Background(), drainTimeout)
	defer cancel()
	if err := hs.Shutdown(drain); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	<-served // http.ErrServerClosed, once Shutdown has begun
	slog.Info("stopped")
	return nil
}
