package main

import (
	"bytes"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"whereroam/internal/cli"
	"whereroam/internal/dataset"
	"whereroam/internal/serve"
)

func TestDrivesALiveServer(t *testing.T) {
	cfg := dataset.DefaultFederationConfig()
	cfg.FleetDevices, cfg.NativePerSite, cfg.Days = 150, 80, 5
	cfg.ArchiveDir = t.TempDir()
	dataset.GenerateFederation(cfg)
	srv := serve.New(serve.Config{})
	if _, err := srv.MountSites(cfg.ArchiveDir); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var stdout bytes.Buffer
	if err := run([]string{"-addr", ts.URL, "-duration", "300ms", "-concurrency", "2", "-min-qps", "1"}, &stdout); err != nil {
		t.Fatalf("%v\n%s", err, stdout.String())
	}
	if !strings.Contains(stdout.String(), " qps (5xx=0 4xx=0 transport=0)") {
		t.Errorf("report lacks the error-free summary:\n%s", stdout.String())
	}
}

func TestRequiresAddr(t *testing.T) {
	if code := cli.ExitCode(run([]string{"-duration", "1s"}, io.Discard)); code != 2 {
		t.Errorf("a missing -addr exited %d, want 2", code)
	}
}
