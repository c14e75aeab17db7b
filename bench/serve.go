package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"whereroam/internal/catalog"
	"whereroam/internal/dataset"
	"whereroam/internal/obs"
	"whereroam/internal/serve"
	"whereroam/internal/store"
)

// fixture is the archive both serve workloads query: one federation
// build persisted as three tap-order stores (device-major, the shape
// a live tap writes), each also compacted into a time-ordered store.
// Day queries go to the compacted mounts and device, stats and
// analysis queries to the tap mounts, the layout each index prunes
// best on; compare reads all six.
type fixture struct {
	sites   []string            // site PLMNs, host order
	dirs    map[string]string   // mount name → store directory
	days    int                 // observation window
	devices map[string][]string // site → device ids looked up, ascending hash
	records int64               // archived records across the three tap stores
}

func tapMount(site string) string       { return site + "t" }
func compactedMount(site string) string { return site + "c" }

// buildFixture generates and compacts the archive under root and
// discovers the devices the workloads look up.
func buildFixture(cfg config, root string, rec *recorder) (*fixture, error) {
	sz := cfg.sz
	fx := &fixture{dirs: map[string]string{}, days: sz.fixtureDays, devices: map[string][]string{}}
	fc := dataset.DefaultFederationConfig()
	fc.Seed = cfg.seed
	fc.FleetDevices, fc.NativePerSite, fc.Days = sz.fleetDevices, sz.nativePerSite, sz.fixtureDays
	fc.Streaming = true
	fc.ArchiveDir, fc.ArchiveSegmentRecords = root, sz.segRecords
	var fed *dataset.FederationDataset
	rec.do("dataset.fed_archive_gen", 0, -1, func() { fed = dataset.GenerateFederation(fc) })
	for _, h := range fed.Hosts {
		site := h.Concat()
		fx.sites = append(fx.sites, site)
		tap, dst := filepath.Join(root, "site-"+site), filepath.Join(root, "compacted-"+site)
		var st *store.CompactStats
		var err error
		rec.do("store.compact", 0, -1, func() {
			st, err = store.Compact(dst, []string{tap}, store.CompactOptions{SegmentRecords: sz.segRecords, TempDir: root})
		})
		if err != nil {
			return nil, err
		}
		fx.records += st.RecordsOut
		fx.dirs[tapMount(site)], fx.dirs[compactedMount(site)] = tap, dst
	}

	// Discovery goes through the daemon's own listing endpoint, on a
	// throwaway server so the measured ones start cold.
	srv, err := fx.newServer(0, false)
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	for _, site := range fx.sites {
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("GET", fmt.Sprintf("/v1/sites/%s/devices?limit=%d", tapMount(site), sz.devicesPerSite), nil))
		var body struct {
			Devices []string `json:"devices"`
		}
		if rr.Code != http.StatusOK {
			return nil, fmt.Errorf("listing devices of %s: status %d: %s", site, rr.Code, rr.Body)
		}
		if err := json.Unmarshal(rr.Body.Bytes(), &body); err != nil {
			return nil, fmt.Errorf("listing devices of %s: %w", site, err)
		}
		if len(body.Devices) == 0 {
			return nil, fmt.Errorf("site %s lists no devices", site)
		}
		fx.devices[site] = body.Devices
	}
	return fx, nil
}

// newServer mounts the six stores on a server with the given
// slice-cache bound; observed attaches a registry and a tracer, which
// is how roamd -metrics runs and how the workloads measure it.
func (fx *fixture) newServer(cacheBytes int64, observed bool) (*serve.Server, error) {
	sc := serve.Config{Workers: runtime.NumCPU(), MaxCacheBytes: cacheBytes}
	if observed {
		sc.Metrics, sc.Tracer = obs.NewRegistry(), obs.NewTracer(256, 0, nil)
	}
	srv := serve.New(sc)
	for _, site := range fx.sites {
		for _, m := range []string{tapMount(site), compactedMount(site)} {
			if err := srv.Mount(m, fx.dirs[m]); err != nil {
				return nil, err
			}
		}
	}
	return srv, nil
}

// Query types, as the per-type readings name them.
const (
	typDay      = "day"
	typDevice   = "device"
	typStats    = "stats"
	typAnalysis = "analysis"
	typCompare  = "compare"
)

// key is one distinct request; its cached slice is what a fill builds.
type key struct {
	id     int
	typ    string
	site   string
	mount  string
	lo, hi int    // day
	dev    string // device
	series string // analysis
	path   string
}

// keySet is every request the serve workloads can issue, indexed the
// way the warm generator draws them.
type keySet struct {
	all      []key
	cold     []int                       // day + device + stats: one serve_cold lap
	byKind   map[string]map[string][]int // type → site → ids
	compare  int
	nDevices int
}

func (fx *fixture) keys() *keySet {
	ks := &keySet{byKind: map[string]map[string][]int{}}
	add := func(k key, cold bool) {
		k.id = len(ks.all)
		ks.all = append(ks.all, k)
		if ks.byKind[k.typ] == nil {
			ks.byKind[k.typ] = map[string][]int{}
		}
		ks.byKind[k.typ][k.site] = append(ks.byKind[k.typ][k.site], k.id)
		if cold {
			ks.cold = append(ks.cold, k.id)
		}
	}
	for _, site := range fx.sites {
		tap, comp := tapMount(site), compactedMount(site)
		// Every 1- and 2-day window.
		for width := 1; width <= 2; width++ {
			for lo := 0; lo+width <= fx.days; lo++ {
				hi := lo + width - 1
				add(key{typ: typDay, site: site, mount: comp, lo: lo, hi: hi,
					path: fmt.Sprintf("/v1/sites/%s/days?lo=%d&hi=%d", comp, lo, hi)}, true)
			}
		}
		for _, dev := range fx.devices[site] {
			add(key{typ: typDevice, site: site, mount: tap, dev: dev,
				path: fmt.Sprintf("/v1/sites/%s/devices/%s", tap, dev)}, true)
		}
		add(key{typ: typStats, site: site, mount: tap, path: fmt.Sprintf("/v1/sites/%s/stats", tap)}, true)
		for _, name := range serve.SeriesNames() {
			add(key{typ: typAnalysis, site: site, mount: tap, series: name,
				path: fmt.Sprintf("/v1/sites/%s/analysis/%s", tap, name)}, false)
		}
		ks.nDevices = max(ks.nDevices, len(fx.devices[site]))
	}
	ks.compare = len(ks.all)
	add(key{typ: typCompare, path: "/v1/compare"}, false)
	return ks
}

// ids lists every key.
func (ks *keySet) ids() []int {
	all := make([]int, len(ks.all))
	for i := range all {
		all[i] = i
	}
	return all
}

// lapOrder is the seed's permutation of the cold keys for one lap.
func lapOrder(seed uint64, lap int, cold []int) []int {
	rng := rand.New(rand.NewSource(int64(seed)*1_000_003 + int64(lap)))
	order := append([]int(nil), cold...)
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}

// warmStream draws one client's serve_warm requests: types by
// serve.DefaultMix, sites uniformly, devices by zipf(1.2) popularity
// over the discovered ones, day windows and series uniformly.
type warmStream struct {
	ks    *keySet
	sites []string
	rng   *rand.Rand
	zipf  *rand.Zipf
}

func newWarmStream(seed uint64, client int, ks *keySet, sites []string) *warmStream {
	rng := rand.New(rand.NewSource(int64(seed)*7919 + int64(client) + 1))
	return &warmStream{ks: ks, sites: sites, rng: rng, zipf: rand.NewZipf(rng, 1.2, 1, uint64(ks.nDevices-1))}
}

func (w *warmStream) next() *key {
	mix := serve.DefaultMix
	site := w.sites[w.rng.Intn(len(w.sites))]
	pick := w.rng.Intn(mix.DeviceLookup + mix.DaySlice + mix.Stats + mix.Analysis + mix.Compare)
	typ := typCompare
	switch {
	case pick < mix.DeviceLookup:
		ids := w.ks.byKind[typDevice][site]
		return &w.ks.all[ids[int(w.zipf.Uint64())%len(ids)]]
	case pick < mix.DeviceLookup+mix.DaySlice:
		typ = typDay
	case pick < mix.DeviceLookup+mix.DaySlice+mix.Stats:
		typ = typStats
	case pick < mix.DeviceLookup+mix.DaySlice+mix.Stats+mix.Analysis:
		typ = typAnalysis
	default:
		return &w.ks.all[w.ks.compare]
	}
	ids := w.ks.byKind[typ][site]
	return &w.ks.all[ids[w.rng.Intn(len(ids))]]
}

// scheduleDigest hashes the request sequences a seed produces: two
// cold laps and the first n draws of each warm client stream.
func scheduleDigest(seed uint64, clients, n int, ks *keySet, sites []string) [sha256.Size]byte {
	d, _ := digestOf(func(h io.Writer) error {
		for lap := 0; lap < 2; lap++ {
			for _, id := range lapOrder(seed, lap, ks.cold) {
				fmt.Fprintln(h, ks.all[id].path)
			}
		}
		for c := 0; c < clients; c++ {
			ws := newWarmStream(seed, c, ks, sites)
			for i := 0; i < n; i++ {
				fmt.Fprintln(h, ws.next().path)
			}
		}
		return nil
	})
	return d
}

// reply is one completed request as its client saw it.
type reply struct {
	k      *key
	lat    time.Duration
	status int
	sum    [sha256.Size]byte
	err    error
}

// loadgen drives a server over loopback HTTP with closed-loop
// clients: each sends its next request when the previous reply has
// been read in full.
type loadgen struct {
	base   string
	client *http.Client
	rec    *recorder
	ops    atomic.Int64
}

func newLoadgen(ts *httptest.Server, clients int, rec *recorder) *loadgen {
	return &loadgen{
		base:   ts.URL,
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}},
		rec:    rec,
	}
}

func (lg *loadgen) get(k *key, buf *bytes.Buffer) reply {
	span := lg.rec.begin("bench.request_"+k.typ, int(lg.ops.Add(1)), -1)
	defer lg.rec.end(span)
	r := reply{k: k}
	t0 := time.Now()
	resp, err := lg.client.Get(lg.base + k.path)
	if err != nil {
		r.err = err
		return r
	}
	buf.Reset()
	_, r.err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	r.lat = time.Since(t0)
	r.status = resp.StatusCode
	r.sum = sha256.Sum256(buf.Bytes())
	return r
}

// run starts the clients and returns every reply once all of them
// have run out of requests: next returns nil to stop a client.
func (lg *loadgen) run(clients int, next func(client, i int) *key) []reply {
	perClient := make([][]reply, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			var buf bytes.Buffer
			for i := 0; ; i++ {
				k := next(c, i)
				if k == nil {
					return
				}
				perClient[c] = append(perClient[c], lg.get(k, &buf))
			}
		}(c)
	}
	wg.Wait()
	var all []reply
	for _, rs := range perClient {
		all = append(all, rs...)
	}
	return all
}

func (lg *loadgen) close() { lg.client.CloseIdleConnections() }

// score books one reply: a transport error, a status other than 200
// or a body that differs from the one first seen for the key fails
// the request.
func (o *outcome) score(r reply, seen map[int][sha256.Size]byte) {
	o.attempted++
	switch want, ok := seen[r.k.id]; {
	case r.err != nil:
		o.fail("GET %s: %v", r.k.path, r.err)
	case r.status != http.StatusOK:
		o.fail("GET %s: status %d", r.k.path, r.status)
	case ok && want != r.sum:
		o.fail("GET %s: body differs from the first reply for this key", r.k.path)
	default:
		seen[r.k.id] = r.sum
		o.ops = append(o.ops, r.lat)
		o.byType[r.k.typ] = append(o.byType[r.k.typ], r.lat)
	}
}

// referenceBody answers a key without the server: a replay of the
// mounted store and the serve package's exported view functions,
// marshalled the way the handlers write it.
func (fx *fixture) referenceBody(k *key) ([]byte, error) {
	workers := runtime.NumCPU()
	replay := func(mount string, q store.Query) (*catalog.Catalog, error) {
		r, err := store.Open(fx.dirs[mount])
		if err != nil {
			return nil, err
		}
		cat, _, err := r.Replay(q, workers)
		return cat, err
	}
	var view any
	switch k.typ {
	case typDay:
		cat, err := replay(k.mount, store.Query{}.Days(k.lo, k.hi))
		if err != nil {
			return nil, err
		}
		view = serve.ComputeDaySlice(k.mount, k.lo, k.hi, cat)
	case typDevice:
		dev, err := serve.ParseDevice(k.dev)
		if err != nil {
			return nil, err
		}
		cat, err := replay(k.mount, store.Query{}.Device(dev))
		if err != nil {
			return nil, err
		}
		v, ok := serve.ComputeDeviceView(dev, cat, workers)
		if !ok {
			return nil, fmt.Errorf("device %s is not in its store", k.dev)
		}
		view = v
	case typStats, typAnalysis:
		cat, err := replay(k.mount, store.Query{})
		if err != nil {
			return nil, err
		}
		if k.typ == typStats {
			view = serve.ComputeStats(k.mount, fx.days, cat, workers)
		} else {
			view, _ = serve.ComputeSeries(k.mount, k.series, cat, workers)
		}
	case typCompare:
		cats := map[string]*catalog.Catalog{}
		for m := range fx.dirs {
			cat, err := replay(m, store.Query{})
			if err != nil {
				return nil, err
			}
			cats[m] = cat
		}
		view = serve.ComputeCompare(cats, workers)
	}
	data, err := json.Marshal(view)
	return append(data, '\n'), err
}

// checkReferences compares one key in sixteen with its reference.
func (o *outcome) checkReferences(fx *fixture, ks *keySet, ids []int, seen map[int][sha256.Size]byte) error {
	for i, id := range ids {
		got, ok := seen[id]
		if i%16 != 0 || !ok {
			continue
		}
		want, err := fx.referenceBody(&ks.all[id])
		if err != nil {
			return err
		}
		if sha256.Sum256(want) != got {
			o.fail("GET %s: body differs from the in-process reference", ks.all[id].path)
		}
	}
	return nil
}

func (o *outcome) noteCache(cs serve.CacheStats) {
	if lookups := cs.Hits + cs.Misses + cs.Waits; lookups > 0 {
		o.notes["cache_hit_ratio"] = float64(cs.Hits) / float64(lookups)
	}
	o.notes["cache_fills"] = float64(cs.Fills)
	o.notes["cache_evictions"] = float64(cs.Evictions)
	o.notes["cache_resident_mib"] = float64(cs.Bytes) / (1 << 20)
}

// serveRun is the state a serve workload's timed part needs.
type serveRun struct {
	fx   *fixture
	ks   *keySet
	srv  *serve.Server
	ts   *httptest.Server
	lg   *loadgen
	seen map[int][sha256.Size]byte
}

func (sr *serveRun) close() {
	sr.lg.close()
	sr.ts.Close()
}

func startServe(fx *fixture, ks *keySet, cacheBytes int64, clients int, rec *recorder) (*serveRun, error) {
	srv, err := fx.newServer(cacheBytes, true)
	if err != nil {
		return nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	return &serveRun{fx: fx, ks: ks, srv: srv, ts: ts, lg: newLoadgen(ts, clients, rec), seen: map[int][sha256.Size]byte{}}, nil
}

// deal sends the keys once, in order, dealt round-robin to the clients.
func (sr *serveRun) deal(ids []int, clients int) []reply {
	return sr.lg.run(clients, func(c, i int) *key {
		if j := c + i*clients; j < len(ids) {
			return &sr.ks.all[ids[j]]
		}
		return nil
	})
}

// coldLap sends one seed-shuffled permutation of the cold keys.
func (sr *serveRun) coldLap(seed uint64, lap, clients int) []reply {
	return sr.deal(lapOrder(seed, lap, sr.ks.cold), clients)
}

// prefill requests every key once, so each slice is resident and each
// body known before serve_warm's timed part.
func (sr *serveRun) prefill(o *outcome, clients int) {
	for _, r := range sr.deal(sr.ks.ids(), clients) {
		if r.err != nil || r.status != http.StatusOK {
			o.problem("prefill GET %s: status %d, error %v", r.k.path, r.status, r.err)
			continue
		}
		sr.seen[r.k.id] = r.sum
	}
}

// warmBurst sends requests from each client's stream until stop says
// so; stop sees the client's request count.
func (sr *serveRun) warmBurst(seed uint64, clients int, stop func(i int) bool) []reply {
	streams := make([]*warmStream, clients)
	for c := range streams {
		streams[c] = newWarmStream(seed, c, sr.ks, sr.fx.sites)
	}
	return sr.lg.run(clients, func(c, i int) *key {
		if stop(i) {
			return nil
		}
		return streams[c].next()
	})
}

func newServeOutcome() *outcome {
	return &outcome{m: newMeter(), notes: map[string]float64{}, byType: map[string][]time.Duration{}}
}

// setupServe builds the fixture in a fresh work directory and starts
// a server over it; cleanup stops the server and removes the stores.
func setupServe(cfg config, cacheBytes int64) (sr *serveRun, cleanup func(), err error) {
	root, err := workRoot()
	if err != nil {
		return nil, nil, err
	}
	fx, err := buildFixture(cfg, root, nil)
	if err == nil {
		sr, err = startServe(fx, fx.keys(), cacheBytes, cfg.clients, nil)
	}
	if err != nil {
		os.RemoveAll(root)
		return nil, nil, err
	}
	return sr, func() { sr.close(); os.RemoveAll(root) }, nil
}

// runServeCold laps the cold key set against a cache a tenth of the
// working set until the seconds are used, and at least twice so every
// key's body is compared with its first reply.
func runServeCold(cfg config) (*outcome, error) {
	o := newServeOutcome()
	defer o.m.close()
	t0 := time.Now()
	sr, cleanup, err := setupServe(cfg, cfg.sz.coldCacheBytes)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	o.setup = time.Since(t0)

	start := time.Now()
	for lap := 0; lap < 2 || time.Since(start).Seconds() < cfg.seconds; lap++ {
		o.m.start()
		replies := sr.coldLap(cfg.seed, lap, cfg.clients)
		o.m.stop()
		for _, r := range replies {
			o.score(r, sr.seen)
		}
		o.notes["laps"]++
	}
	if err := o.checkReferences(sr.fx, sr.ks, sr.ks.cold, sr.seen); err != nil {
		return nil, err
	}
	o.noteCache(sr.srv.CacheStats())
	o.notes["keys_per_lap"] = float64(len(sr.ks.cold))
	o.notes["fixture_records"] = float64(sr.fx.records)
	return o, nil
}

// runServeWarm pre-fills a cache that holds the whole working set,
// then sends the mixed stream until the seconds are used.
func runServeWarm(cfg config) (*outcome, error) {
	o := newServeOutcome()
	defer o.m.close()
	t0 := time.Now()
	sr, cleanup, err := setupServe(cfg, cfg.sz.warmCacheBytes)
	if err != nil {
		return nil, err
	}
	defer cleanup()
	sr.prefill(o, cfg.clients)
	before := sr.srv.CacheStats()
	o.setup = time.Since(t0)

	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	o.m.start()
	replies := sr.warmBurst(cfg.seed, cfg.clients, func(int) bool { return !time.Now().Before(deadline) })
	o.m.stop()
	for _, r := range replies {
		o.score(r, sr.seen)
	}
	if err := o.checkReferences(sr.fx, sr.ks, sr.ks.ids(), sr.seen); err != nil {
		return nil, err
	}
	after := sr.srv.CacheStats()
	after.Hits, after.Misses, after.Waits, after.Fills = after.Hits-before.Hits, after.Misses-before.Misses, after.Waits-before.Waits, after.Fills-before.Fills
	o.noteCache(after)
	o.notes["distinct_keys"] = float64(len(sr.ks.all))
	o.notes["fixture_records"] = float64(sr.fx.records)
	return o, nil
}
