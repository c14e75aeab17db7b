package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"whereroam/internal/catalog"
	"whereroam/internal/cli"
	"whereroam/internal/dataset"
)

// writeCatalog streams a small visited-MNO catalog to a CSV file the
// way mnosim does and returns its path.
func writeCatalog(t *testing.T) string {
	t.Helper()
	cfg := dataset.DefaultMNOConfig()
	cfg.Devices, cfg.Days, cfg.Workers = 200, 3, 1
	var buf bytes.Buffer
	cw, err := catalog.NewCSVWriter(&buf, cfg.Host, cfg.Days)
	if err != nil {
		t.Fatal(err)
	}
	dataset.StreamMNO(cfg, dataset.MNOSink{Record: func(rec catalog.DailyRecord) {
		if err := cw.Write(&rec); err != nil {
			t.Error(err)
		}
	}})
	if err := cw.Flush(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "c.csv")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestClassifiesACatalog(t *testing.T) {
	var stdout bytes.Buffer
	if err := run([]string{"-in", writeCatalog(t), "-apns"}, &stdout); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"catalog: host ", "label", "class", "validated M2M APNs:"} {
		if !strings.Contains(stdout.String(), want) {
			t.Errorf("report lacks %q:\n%s", want, stdout.String())
		}
	}
}

func TestRejectsStrayArgument(t *testing.T) {
	if code := cli.ExitCode(run([]string{"-in", "c.csv", "c2.csv"}, io.Discard)); code != 2 {
		t.Errorf("a stray argument exited %d, want 2", code)
	}
}
