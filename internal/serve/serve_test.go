package serve

import (
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"whereroam/internal/dataset"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata golden files")

var (
	archOnce sync.Once
	archDir  string
	archErr  error
)

// testArchive generates (once per test process) the seed-1 federation
// archive every serving test mounts: three site-<plmn> CDR stores at
// a small deterministic scale.
func testArchive(t *testing.T) string {
	t.Helper()
	archOnce.Do(func() {
		dir, err := os.MkdirTemp("", "whereroam-serve-test-")
		if err != nil {
			archErr = err
			return
		}
		cfg := dataset.DefaultFederationConfig()
		cfg.Seed = 1
		cfg.FleetDevices, cfg.NativePerSite, cfg.Days = 150, 80, 5
		cfg.ArchiveDir = dir
		dataset.GenerateFederation(cfg)
		archDir = dir
	})
	if archErr != nil {
		t.Fatal(archErr)
	}
	return archDir
}

func TestMain(m *testing.M) {
	flag.Parse()
	code := m.Run()
	if archDir != "" {
		os.RemoveAll(archDir)
	}
	os.Exit(code)
}

// newTestServer mounts the shared test archive.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s := New(cfg)
	if _, err := s.MountSites(testArchive(t)); err != nil {
		t.Fatal(err)
	}
	return s
}

// get fetches path from the handler and returns status and body.
func testGet(t *testing.T, h http.Handler, path string) (int, []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	body, err := io.ReadAll(rec.Result().Body)
	if err != nil {
		t.Fatal(err)
	}
	return rec.Code, body
}

// firstSite returns the lexically first mounted site name.
func firstSite(t *testing.T, s *Server) string {
	t.Helper()
	sites := s.Sites()
	if len(sites) == 0 {
		t.Fatal("no mounted sites")
	}
	return sites[0].Site
}

// firstDevice returns the first (lowest-hash) device of a site.
func firstDevice(t *testing.T, s *Server, site string) string {
	t.Helper()
	_, body := testGet(t, s.Handler(), "/v1/sites/"+site+"/devices?limit=1")
	start := strings.Index(string(body), `"devices":["`)
	if start < 0 {
		t.Fatalf("no devices in %s", body)
	}
	hex := string(body[start+len(`"devices":["`):])
	return hex[:16]
}

// TestHandlerGoldens pins every endpoint's JSON body at seed 1
// against committed goldens (regenerate with go test -run Golden
// -update). The bodies are produced by the same compute functions the
// fed-serve experiments runner reports, so these goldens pin the
// daemon bit-identical to the runner output.
func TestHandlerGoldens(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	site := firstSite(t, s)
	dev := firstDevice(t, s, site)

	cases := []struct {
		name string
		path string
	}{
		{"sites", "/v1/sites"},
		{"stats", "/v1/sites/" + site + "/stats"},
		{"days_1_3", "/v1/sites/" + site + "/days?lo=1&hi=3"},
		{"devices_limit5", "/v1/sites/" + site + "/devices?limit=5"},
		{"device_first", "/v1/sites/" + site + "/devices/" + dev},
		{"analysis_active_days", "/v1/sites/" + site + "/analysis/active_days"},
		{"analysis_daily_devices", "/v1/sites/" + site + "/analysis/daily_devices"},
		{"analysis_daily_bytes", "/v1/sites/" + site + "/analysis/daily_bytes"},
		{"compare", "/v1/compare"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := testGet(t, h, tc.path)
			if status != http.StatusOK {
				t.Fatalf("GET %s: status %d: %s", tc.path, status, body)
			}
			golden := filepath.Join("testdata", "golden", tc.name+".json")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, body, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("missing golden (run with -update): %v", err)
			}
			if string(want) != string(body) {
				t.Fatalf("GET %s diverged from golden %s:\ngot:  %s\nwant: %s",
					tc.path, golden, body, want)
			}
		})
	}
}

// TestHandlerErrors pins the error contract: unknown resources are
// 404, malformed requests 400, and every error body is JSON with an
// "error" key.
func TestHandlerErrors(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	site := firstSite(t, s)

	cases := []struct {
		name   string
		path   string
		status int
	}{
		{"unknown site", "/v1/sites/99999/stats", http.StatusNotFound},
		{"unknown device", "/v1/sites/" + site + "/devices/ffffffffffffffff", http.StatusNotFound},
		{"malformed device", "/v1/sites/" + site + "/devices/nothex", http.StatusBadRequest},
		{"short device", "/v1/sites/" + site + "/devices/abc", http.StatusBadRequest},
		{"inverted day range", "/v1/sites/" + site + "/days?lo=3&hi=1", http.StatusBadRequest},
		{"negative day", "/v1/sites/" + site + "/days?lo=-2&hi=1", http.StatusBadRequest},
		{"out-of-window day", "/v1/sites/" + site + "/days?lo=0&hi=99", http.StatusBadRequest},
		{"half day range", "/v1/sites/" + site + "/days?lo=1", http.StatusBadRequest},
		{"missing day range", "/v1/sites/" + site + "/days", http.StatusBadRequest},
		{"bad limit", "/v1/sites/" + site + "/devices?limit=-4", http.StatusBadRequest},
		{"unknown series", "/v1/sites/" + site + "/analysis/nope", http.StatusNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, body := testGet(t, h, tc.path)
			if status != tc.status {
				t.Fatalf("GET %s: status %d, want %d (%s)", tc.path, status, tc.status, body)
			}
			if !strings.Contains(string(body), `"error"`) {
				t.Fatalf("GET %s: error body is not JSON: %s", tc.path, body)
			}
		})
	}
}

// goneStoreServer mounts a private copy of one site store under cfg,
// then deletes the copy, so every cold request for that site has to
// fail its fill. It returns the handler and the mounted site names.
func goneStoreServer(t *testing.T, cfg Config) (http.Handler, []string) {
	t.Helper()
	// Copy one site store into a disposable dir so deleting it does
	// not disturb the shared archive.
	src := testArchive(t)
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	root := t.TempDir()
	siteDir := filepath.Join(root, ents[0].Name())
	if err := os.MkdirAll(siteDir, 0o755); err != nil {
		t.Fatal(err)
	}
	files, err := os.ReadDir(filepath.Join(src, ents[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(filepath.Join(src, ents[0].Name(), f.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(siteDir, f.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s := New(cfg)
	names, err := s.MountSites(root)
	if err != nil {
		t.Fatal(err)
	}
	h := s.Handler()
	if err := os.RemoveAll(siteDir); err != nil {
		t.Fatal(err)
	}
	return h, names
}

// TestStoreGoneMidRequest pins the 503 path: a store that vanishes
// after mount turns cold requests into JSON 503s, never panics or
// empty 200s.
func TestStoreGoneMidRequest(t *testing.T) {
	h, names := goneStoreServer(t, Config{})
	for _, path := range []string{
		"/v1/sites/" + names[0] + "/stats",
		"/v1/sites/" + names[0] + "/days?lo=0&hi=1",
		"/v1/sites/" + names[0] + "/devices/0000000000000001",
		"/v1/compare",
	} {
		status, body := testGet(t, h, path)
		if status != http.StatusServiceUnavailable {
			t.Fatalf("GET %s with store gone: status %d (%s)", path, status, body)
		}
		if !strings.Contains(string(body), `"error"`) {
			t.Fatalf("GET %s: 503 body is not JSON: %s", path, body)
		}
	}
}

// TestDecodeQueryInvariants covers the decoder's corners directly.
func TestDecodeQueryInvariants(t *testing.T) {
	cases := []struct {
		raw  string
		days int
		ok   bool
	}{
		{"", 5, true},
		{"lo=0&hi=4", 5, true},
		{"lo=4&hi=4&limit=3", 5, true},
		{"lo=0&hi=5", 5, false},
		{"lo=3&hi=2", 5, false},
		{"lo=-1&hi=2", 5, false},
		{"lo=1", 5, false},
		{"hi=1", 5, false},
		{"limit=-1", 5, false},
		{"limit=x", 5, false},
		{"lo=x&hi=2", 5, false},
		{"lo=0&hi=0", 0, true}, // unknown window length: range unbounded above
		{";bad=%zz", 5, false},
	}
	for _, tc := range cases {
		_, err := DecodeQuery(tc.raw, tc.days)
		if (err == nil) != tc.ok {
			t.Errorf("DecodeQuery(%q, %d): err=%v, want ok=%v", tc.raw, tc.days, err, tc.ok)
		}
	}
}

// TestLoadGenerator drives a live httptest daemon briefly and checks
// the generator's accounting: requests flow, no errors, every op in
// the default mix appears.
func TestLoadGenerator(t *testing.T) {
	s := newTestServer(t, Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	res, err := RunLoad(LoadConfig{
		BaseURL:     ts.URL,
		Concurrency: 2,
		Duration:    300 * time.Millisecond,
		Seed:        1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests == 0 || res.QPS <= 0 {
		t.Fatalf("no load generated: %+v", res)
	}
	if res.Errors5xx != 0 || res.Errors4xx != 0 || res.TransportErrors != 0 {
		t.Fatalf("load saw errors: %+v", res)
	}
	for op, st := range res.Ops {
		if st.Count > 0 && (st.P50Ns <= 0 || st.P99Ns < st.P50Ns) {
			t.Fatalf("op %s has inconsistent percentiles: %+v", op, st)
		}
	}
}
