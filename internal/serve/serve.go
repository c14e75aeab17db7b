// Package serve is the archive serving layer: a read-only HTTP/JSON
// query daemon over one or more segmented CDR archive stores (the
// site-<plmn> layout the federation's ArchiveDir writes).
//
// The server mounts each store at startup and builds hot read models
// ("slices") on demand: a store.Query-planned replay rebuilds the
// requested catalog slice — segment selection driven by the footer
// indexes, including per-segment device blooms for exact-device
// lookups — then summaries, classification and roaming labels are
// derived once and cached. Slices live in a size-bounded
// LRU with single-flight fill — concurrent requests for the same cold
// slice share one replay — and are immutable, so any number of
// request goroutines read them without locks.
//
// Responses are deterministic given a sealed store: replay is
// bit-identical at any worker count (the store package's contract),
// slice derivation orders every aggregation, and the view types
// marshal with sorted map keys. The same compute functions
// (ComputeStats, ComputeDaySlice, ComputeDeviceView, ComputeSeries)
// back both the HTTP handlers and the fed-serve experiments runner,
// which is what pins the daemon's responses bit-identical to the
// runner's reported values.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"whereroam/internal/catalog"
	"whereroam/internal/obs"
	"whereroam/internal/store"
)

// Config parameterizes a Server.
type Config struct {
	// Workers is not read. A slice fill runs serially on its request's
	// goroutine: the server parallelizes across requests, and under
	// concurrent load a fill fanned out over workers was no faster
	// than a serial one and allocated more. The field remains for the
	// callers that still set it.
	Workers int
	// MaxCacheBytes bounds the slice cache's estimated resident cost;
	// non-positive means effectively unbounded.
	MaxCacheBytes int64
	// Metrics attaches the observability registry: per-route request
	// counters and latency histograms, cache gauges, and the mounted
	// stores' planner/read counters all register against it. Nil (the
	// default) leaves the server uninstrumented — the request path is
	// byte-for-byte the unobserved code, which is what keeps the
	// serving benchmarks and response determinism untouched.
	Metrics *obs.Registry
	// Tracer records slice-build spans (labeled with cache key and
	// slice cost) and the store's compaction spans. Nil disables
	// tracing independently of Metrics.
	Tracer *obs.Tracer
}

// mount is one archived site the server answers queries for. It keeps
// the store.Reader it last opened, with the store metrics attached
// once, at open: a Reader is an immutable snapshot that any number of
// fills replay concurrently, so nothing may be set on it afterwards.
type mount struct {
	name string
	dir  string
	info SiteInfo
	met  *store.Metrics

	mu     sync.Mutex
	reader *store.Reader
	stamp  manifestStamp
}

// manifestStamp identifies the two files a store.Reader materialized
// its manifest from, as os.Stat saw them just before the Open; log is
// nil for a store without a MANIFEST.log.
type manifestStamp struct {
	ckpt, log os.FileInfo
}

// stampOf stats the manifest files of the store at dir.
func stampOf(dir string) (manifestStamp, error) {
	var st manifestStamp
	var err error
	if st.ckpt, err = os.Stat(filepath.Join(dir, store.ManifestCheckpointName)); err != nil {
		return manifestStamp{}, err
	}
	if st.log, err = os.Stat(filepath.Join(dir, store.ManifestLogName)); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return manifestStamp{}, err
	}
	return st, nil
}

// unchanged reports whether b is the same file as a, with the same
// size and modification time.
func unchanged(a, b os.FileInfo) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return os.SameFile(a, b) && a.Size() == b.Size() && a.ModTime().Equal(b.ModTime())
}

// SiteInfo is one mounted store's row in the /v1/sites listing.
type SiteInfo struct {
	// Site is the mount name (for ArchiveDir layouts, the observing
	// operator's PLMN).
	Site string `json:"site"`
	// Host is the store's observing operator, empty when unset.
	Host string `json:"host,omitempty"`
	// Days is the store's observation-window length.
	Days int `json:"days"`
	// Segments is the sealed-segment count at mount time.
	Segments int `json:"segments"`
	// Records is the sealed-record count at mount time.
	Records int64 `json:"records"`
}

// Server answers catalog, classification and analysis queries over
// mounted archive stores. Mount every store before calling Handler;
// the mount table is read-only afterwards, so Server is safe for
// concurrent use by the HTTP stack.
type Server struct {
	cfg    Config
	mounts map[string]*mount
	order  []string
	cache  *sliceCache
	obs    *serverObs
}

// New returns an empty server; mount stores with Mount or MountSites.
func New(cfg Config) *Server {
	s := &Server{
		cfg:    cfg,
		mounts: map[string]*mount{},
		cache:  newSliceCache(cfg.MaxCacheBytes),
	}
	if cfg.Metrics != nil || cfg.Tracer != nil {
		s.obs = newServerObs(s, cfg.Metrics, cfg.Tracer)
	}
	return s
}

// Mount registers the store at dir under the given site name. The
// store is opened to validate it and record its window, and the mount
// keeps that Reader for its fills (see mount.open); segment bodies are
// only read when a query needs them.
func (s *Server) Mount(name, dir string) error {
	if name == "" || s.mounts[name] != nil {
		return fmt.Errorf("serve: bad or duplicate mount name %q", name)
	}
	m := &mount{name: name, dir: dir}
	if s.obs != nil {
		m.met = s.obs.store
	}
	r, err := m.open()
	if err != nil {
		return fmt.Errorf("serve: mounting %s: %w", name, err)
	}
	man := r.Manifest()
	m.info = SiteInfo{
		Site:     name,
		Host:     man.Host,
		Days:     man.Days,
		Segments: len(man.Segments),
		Records:  man.TotalRecords,
	}
	s.mounts[name] = m
	s.order = append(s.order, name)
	sort.Strings(s.order)
	return nil
}

// MountSites mounts every site-<plmn> store directory under root —
// the layout FederationConfig.ArchiveDir writes — using the PLMN as
// the mount name. It returns the mounted names.
func (s *Server) MountSites(root string) ([]string, error) {
	names, err := store.SiteDirs(root)
	if err != nil {
		return nil, fmt.Errorf("serve: scanning %s: %w", root, err)
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("serve: no site-* stores under %s", root)
	}
	for i, name := range names {
		if err := s.Mount(name, store.SiteDir(root, name)); err != nil {
			return names[:i], err
		}
	}
	return names, nil
}

// Sites lists the mounted sites in name order.
func (s *Server) Sites() []SiteInfo {
	out := make([]SiteInfo, 0, len(s.order))
	for _, n := range s.order {
		out = append(out, s.mounts[n].info)
	}
	return out
}

// CacheStats snapshots the slice cache's counters.
func (s *Server) CacheStats() CacheStats { return s.cache.stats() }

// open returns a Reader over the mount's store for a fill: the one it
// already holds when MANIFEST.ckpt and MANIFEST.log are still the
// files it was opened from (same file, size and modification time —
// an append to the log, a replaced checkpoint or a store compacted
// over all change one of them), a fresh store.Open otherwise. Checking
// on every fill keeps the server honest about the disk: a store
// deleted, appended to or replaced after mount shows on the very next
// fill — as a 503 or as the new contents — never as a stale success.
// The stamp is taken before the Open, so a change that lands between
// the two can only make the next fill re-open once more.
func (m *mount) open() (*store.Reader, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	now, err := stampOf(m.dir)
	if err == nil && m.reader != nil && unchanged(m.stamp.ckpt, now.ckpt) && unchanged(m.stamp.log, now.log) {
		return m.reader, nil
	}
	r, err := store.Open(m.dir)
	if err != nil {
		return nil, err
	}
	r.Observe(m.met)
	m.reader, m.stamp = r, now
	return r, nil
}

// wholeSlice returns the site's whole-window read model, building it
// through the cache on first use.
func (s *Server) wholeSlice(m *mount) (*slice, error) {
	return s.buildSlice("w|"+m.name, m, store.Query{})
}

// daySlice returns the read model of the site pruned to [lo, hi].
func (s *Server) daySlice(m *mount, lo, hi int) (*slice, error) {
	key := fmt.Sprintf("d|%s|%d-%d", m.name, lo, hi)
	return s.buildSlice(key, m, store.Query{}.Days(lo, hi))
}

// errorBody is the JSON error envelope every non-2xx response
// carries.
type errorBody struct {
	// Error is the human-readable failure description.
	Error string `json:"error"`
}

// writeJSON marshals v as the response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encoding response"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(data, '\n'))
}

// writeError maps a failure to its JSON error response.
func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// writeFillError reports a slice-fill failure: the store vanished or
// corrupted under a live server, which is a backend availability
// problem, not a client error.
func writeFillError(w http.ResponseWriter, err error) {
	writeError(w, http.StatusServiceUnavailable, err)
}

// site resolves the {site} path element, answering 404 itself when
// the mount does not exist.
func (s *Server) site(w http.ResponseWriter, r *http.Request) *mount {
	name := r.PathValue("site")
	m := s.mounts[name]
	if m == nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: unknown site %q", name))
	}
	return m
}

// Handler returns the server's HTTP API. When Config.Metrics is set,
// every route is wrapped in the per-route middleware (request/error
// counters, in-flight gauge, latency histograms); otherwise the
// handlers mount bare.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", s.route("healthz", s.handleHealthz))
	mux.HandleFunc("GET /v1/sites", s.route("sites", s.handleSites))
	mux.HandleFunc("GET /v1/sites/{site}/stats", s.route("site_stats", s.handleSiteStats))
	mux.HandleFunc("GET /v1/sites/{site}/days", s.route("days", s.handleDays))
	mux.HandleFunc("GET /v1/sites/{site}/devices", s.route("devices", s.handleDevices))
	mux.HandleFunc("GET /v1/sites/{site}/devices/{device}", s.route("device", s.handleDevice))
	mux.HandleFunc("GET /v1/sites/{site}/analysis/{series}", s.route("analysis", s.handleAnalysis))
	mux.HandleFunc("GET /v1/compare", s.route("compare", s.handleCompare))
	return mux
}

// handleHealthz answers liveness probes.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleSites lists the mounted sites.
func (s *Server) handleSites(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Sites())
}

// handleSiteStats serves the whole-window per-operator stats view.
func (s *Server) handleSiteStats(w http.ResponseWriter, r *http.Request) {
	m := s.site(w, r)
	if m == nil {
		return
	}
	sl, err := s.wholeSlice(m)
	if err != nil {
		writeFillError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, statsOf(m.name, m.info.Days, sl))
}

// handleDays serves the day-range summary of a site.
func (s *Server) handleDays(w http.ResponseWriter, r *http.Request) {
	m := s.site(w, r)
	if m == nil {
		return
	}
	opts, err := DecodeQuery(r.URL.RawQuery, m.info.Days)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if !opts.HasRange {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: days query needs lo and hi"))
		return
	}
	sl, err := s.daySlice(m, opts.Lo, opts.Hi)
	if err != nil {
		writeFillError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, ComputeDaySlice(m.name, opts.Lo, opts.Hi, sl.cat))
}

// deviceListBody is the /v1/sites/{site}/devices response.
type deviceListBody struct {
	// Site is the mount name.
	Site string `json:"site"`
	// Total is the site's distinct-device count.
	Total int `json:"total"`
	// Devices lists device hashes in ascending hash order, truncated
	// to the requested limit.
	Devices []string `json:"devices"`
}

// handleDevices lists the site's device hashes.
func (s *Server) handleDevices(w http.ResponseWriter, r *http.Request) {
	m := s.site(w, r)
	if m == nil {
		return
	}
	opts, err := DecodeQuery(r.URL.RawQuery, m.info.Days)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	sl, err := s.wholeSlice(m)
	if err != nil {
		writeFillError(w, err)
		return
	}
	sums := sl.pop.Sums
	body := deviceListBody{Site: m.name, Total: len(sums), Devices: []string{}}
	n := len(sums)
	if opts.Limit > 0 && opts.Limit < n {
		n = opts.Limit
	}
	for i := 0; i < n; i++ {
		body.Devices = append(body.Devices, sums[i].Device.String())
	}
	writeJSON(w, http.StatusOK, body)
}

// handleDevice serves the single-device lookup. The fill replays a
// device-pruned slice, so a cold lookup reads only the segments whose
// hash range covers the device — and, on stores with per-segment
// device blooms, only those whose filter says the device may be
// present.
func (s *Server) handleDevice(w http.ResponseWriter, r *http.Request) {
	m := s.site(w, r)
	if m == nil {
		return
	}
	dev, err := ParseDevice(r.PathValue("device"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	key := fmt.Sprintf("v|%s|%016x", m.name, uint64(dev))
	sl, err := s.buildSlice(key, m, store.Query{}.Device(dev))
	if err != nil {
		writeFillError(w, err)
		return
	}
	i, ok := sl.pop.Find(dev)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: unknown device %016x", uint64(dev)))
		return
	}
	writeJSON(w, http.StatusOK, deviceViewAt(sl.pop, i))
}

// handleAnalysis serves one named analysis series over the site's
// whole-window slice.
func (s *Server) handleAnalysis(w http.ResponseWriter, r *http.Request) {
	m := s.site(w, r)
	if m == nil {
		return
	}
	name := r.PathValue("series")
	sl, err := s.wholeSlice(m)
	if err != nil {
		writeFillError(w, err)
		return
	}
	se, ok := seriesOf(m.name, name, sl)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: unknown series %q (have %v)", name, SeriesNames()))
		return
	}
	writeJSON(w, http.StatusOK, se)
}

// handleCompare serves the cross-site comparison over every mount.
func (s *Server) handleCompare(w http.ResponseWriter, r *http.Request) {
	slices := make(map[string]*slice, len(s.order))
	for _, n := range s.order {
		sl, err := s.wholeSlice(s.mounts[n])
		if err != nil {
			writeFillError(w, err)
			return
		}
		slices[n] = sl
	}
	writeJSON(w, http.StatusOK, compareOf(s.order, slices))
}

// compareOf computes the CompareView over whole-window slices keyed
// by mount name; order fixes the site ordering.
func compareOf(order []string, slices map[string]*slice) *CompareView {
	cv := &CompareView{Sites: []SiteBrief{}, Pairs: []SharedPair{}}
	for _, n := range order {
		sl := slices[n]
		b := SiteBrief{Site: n, Devices: len(sl.pop.Sums), Records: len(sl.cat.Records)}
		for _, l := range sl.pop.Labels {
			if l.InboundRoamer() {
				b.Inbound++
			}
		}
		if b.Devices > 0 {
			b.InboundShare = float64(b.Inbound) / float64(b.Devices)
		}
		cv.Sites = append(cv.Sites, b)
	}
	for i := 0; i < len(order); i++ {
		for j := i + 1; j < len(order); j++ {
			// Both populations are sorted by device: one merge walk.
			a, b := slices[order[i]].pop.Sums, slices[order[j]].pop.Sums
			shared := 0
			for x, y := 0, 0; x < len(a) && y < len(b); {
				switch da, db := a[x].Device, b[y].Device; {
				case da < db:
					x++
				case da > db:
					y++
				default:
					shared++
					x++
					y++
				}
			}
			cv.Pairs = append(cv.Pairs, SharedPair{A: order[i], B: order[j], Shared: shared})
		}
	}
	return cv
}

// ComputeCompare derives the fed-site comparison directly from
// whole-window catalogs keyed by site name — the runner-side twin of
// the /v1/compare handler.
func ComputeCompare(cats map[string]*catalog.Catalog, workers int) *CompareView {
	order := make([]string, 0, len(cats))
	for n := range cats {
		order = append(order, n)
	}
	sort.Strings(order)
	slices := make(map[string]*slice, len(cats))
	for n, c := range cats {
		slices[n] = newSlice(c, workers)
	}
	return compareOf(order, slices)
}
