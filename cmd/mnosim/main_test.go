package main

import (
	"bytes"
	"encoding/csv"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"whereroam/internal/catalog"
	"whereroam/internal/identity"
)

// runEnv makes the test binary act as mnosim, so each case runs the
// real command in a child process and sees its exit status.
const runEnv = "MNOSIM_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// mnosim runs the command and returns its combined output and exit
// status.
func mnosim(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runEnv+"=1")
	out, err := cmd.CombinedOutput()
	if cmd.ProcessState == nil {
		t.Fatal(err)
	}
	return string(out), cmd.ProcessState.ExitCode()
}

func TestRejectsBadConfigBeforeCreatingOutput(t *testing.T) {
	for _, bad := range []string{"-devices=0", "-days=0"} {
		path := filepath.Join(t.TempDir(), "c.csv")
		out, code := mnosim(t, "-out", path, bad)
		if code != 2 || strings.Contains(out, "goroutine") {
			t.Errorf("%s: exit status %d, want 2 without a stack trace; output:\n%s", bad, code, out)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%s left %s behind (stat: %v)", bad, path, err)
		}
	}
}

func TestCatalogAndTruthAgree(t *testing.T) {
	dir := t.TempDir()
	catPath, truthPath := filepath.Join(dir, "c.csv"), filepath.Join(dir, "t.csv")
	if out, code := mnosim(t, "-devices", "300", "-out", catPath, "-truth", truthPath); code != 0 {
		t.Fatalf("exit status %d:\n%s", code, out)
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
