package main

import (
	"bytes"
	"encoding/csv"
	"io"
	"os"
	"path/filepath"
	"testing"

	"whereroam/internal/catalog"
	"whereroam/internal/cli"
	"whereroam/internal/identity"
)

func TestRejectsBadConfigBeforeCreatingOutput(t *testing.T) {
	for _, bad := range []string{"-devices=0", "-days=0"} {
		path := filepath.Join(t.TempDir(), "c.csv")
		if code := cli.ExitCode(run([]string{"-out", path, bad}, io.Discard)); code != 2 {
			t.Errorf("%s: exit status %d, want 2", bad, code)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%s left %s behind (stat: %v)", bad, path, err)
		}
	}
}

// TestFailedRunLeavesOutputUntouched holds both outputs to
// all-or-nothing: an unwritable -truth fails the run, and the catalog
// path keeps what it held before.
func TestFailedRunLeavesOutputUntouched(t *testing.T) {
	dir := t.TempDir()
	catPath := filepath.Join(dir, "c.csv")
	if err := os.WriteFile(catPath, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-devices", "50", "-out", catPath, "-truth", filepath.Join(dir, "nodir", "t.csv")}, io.Discard)
	if cli.ExitCode(err) != 1 {
		t.Fatalf("run = %v, want a failure with exit status 1", err)
	}
	if b, _ := os.ReadFile(catPath); string(b) != "old" {
		t.Errorf("a failed run rewrote -out to %d bytes", len(b))
	}
	if es, _ := os.ReadDir(dir); len(es) != 1 {
		t.Errorf("a failed run left %d entries in the output directory, want only c.csv", len(es))
	}
}

func TestCatalogAndTruthAgree(t *testing.T) {
	dir := t.TempDir()
	catPath, truthPath := filepath.Join(dir, "c.csv"), filepath.Join(dir, "t.csv")
	var stdout bytes.Buffer
	if err := run([]string{"-devices", "300", "-out", catPath, "-truth", truthPath}, &stdout); err != nil {
		t.Fatalf("%v\n%s", err, stdout.String())
	}
	cb, err := os.ReadFile(catPath)
	if err != nil {
		t.Fatal(err)
	}
	cat, err := catalog.ReadCSV(bytes.NewReader(cb))
	if err != nil {
		t.Fatal(err)
	}
	devs := map[identity.DeviceID]bool{}
	for i := range cat.Records {
		devs[cat.Records[i].Device] = true
	}
	tb, err := os.ReadFile(truthPath)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(bytes.NewReader(tb)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 301 || len(devs) != 300 {
		t.Errorf("truth CSV has %d rows, catalog %d devices; want a header and 300 devices in both", len(rows), len(devs))
	}
}
