package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"whereroam/internal/dataset"
	"whereroam/internal/serve"
)

// TestFedServeMatchesDaemon is the cross-check the serving layer's
// golden tests lean on: the fed-serve runner's reported values and a
// live roamd-equivalent HTTP server mounted over the same seed-1
// archive must agree exactly (float64 equality, no tolerance),
// because they execute the same serve.Compute* functions over the
// same replayed slices. The daemon mounts an archive of the session's
// federation written apart from the runner's scratch one.
func TestFedServeMatchesDaemon(t *testing.T) {
	dir := t.TempDir()
	sess := NewSessionWorkers(1, 0.06, 2)
	if err := dataset.ArchiveFederation(sess.FederationData(), dir, 0); err != nil {
		t.Fatal(err)
	}

	runner, ok := ByID("fed-serve")
	if !ok {
		t.Fatal("fed-serve runner not registered")
	}
	rep := runner.Run(sess)
	if !has(rep, "served_sites") || rep.Value("served_sites") == 0 {
		t.Fatalf("fed-serve served no sites:\n%s", rep)
	}

	srv := serve.New(serve.Config{})
	names, err := srv.MountSites(dir)
	if err != nil {
		t.Fatal(err)
	}
	if float64(len(names)) != rep.Value("served_sites") {
		t.Fatalf("daemon mounts %d sites, runner served %.0f", len(names), rep.Value("served_sites"))
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	getJSON := func(path string, v any) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, resp.StatusCode, body)
		}
		if err := json.Unmarshal(body, v); err != nil {
			t.Fatalf("GET %s: %v in %s", path, err, body)
		}
	}

	for _, name := range names {
		var st serve.SiteStats
		getJSON("/v1/sites/"+name+"/stats", &st)
		key := "site_" + name
		checks := []struct {
			suffix string
			got    float64
		}{
			{"_served_devices", float64(st.Devices)},
			{"_served_records", float64(st.Records)},
			{"_served_events", float64(st.Events)},
			{"_served_bytes", float64(st.Bytes)},
			{"_served_inbound_share", st.InboundShare},
			{"_served_inbound_m2m_share", st.InboundM2MShare},
		}
		for _, c := range checks {
			if !has(rep, key+c.suffix) {
				t.Errorf("runner has no value %s", key+c.suffix)
				continue
			}
			if want := rep.Value(key + c.suffix); c.got != want {
				t.Errorf("site %s %s: daemon %v, runner %v", name, c.suffix, c.got, want)
			}
		}
	}

	var cv serve.CompareView
	getJSON("/v1/compare", &cv)
	if len(cv.Pairs) == 0 {
		t.Fatal("daemon compare view has no site pairs")
	}
	for _, p := range cv.Pairs {
		key := fmt.Sprintf("shared_%s_%s", p.A, p.B)
		if !has(rep, key) {
			t.Errorf("runner has no value %s", key)
			continue
		}
		if want := rep.Value(key); float64(p.Shared) != want {
			t.Errorf("pair %s-%s: daemon shares %d, runner %v", p.A, p.B, p.Shared, want)
		}
	}
}

// fed-serve's report pinned by the SHA-256 of Report.String() at seeds
// 1–3 × scale 0.05. The constants were taken at commit 485dad7, when
// the runner's scratch archive came from a second, full federation
// build; it is now written from the session's retained federation.
func TestFedServeReportDigests(t *testing.T) {
	want := map[uint64]string{
		1: "c57fe94318016a3d1542523e2db24bf26ecc7df386c6ae5d0d8d25f41a85a7ab",
		2: "1994529827d3c57a488789af6946b03b07312e84cb25d1aa5ce420bab020ba48",
		3: "debd6ba0f3443aaa7fe3bdc083c52bd67f686183408aa8f269fefd3f6571d3f3",
	}
	r, ok := ByID("fed-serve")
	if !ok {
		t.Fatal("fed-serve not registered")
	}
	for seed := uint64(1); seed <= 3; seed++ {
		sum := sha256.Sum256([]byte(r.Run(NewSessionWorkers(seed, 0.05, 0)).String()))
		if got := hex.EncodeToString(sum[:]); got != want[seed] {
			t.Errorf("seed %d fed-serve: report digest %s, pinned %s", seed, got, want[seed])
		}
	}
}
