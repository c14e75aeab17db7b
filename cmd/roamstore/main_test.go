package main

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"whereroam/internal/catalog"
)

// runEnv makes the test binary act as roamstore, so each case runs the
// real command in a child process and sees its exit status.
const runEnv = "ROAMSTORE_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// roamstore runs the command and returns its combined output and exit
// status.
func roamstore(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runEnv+"=1")
	out, err := cmd.CombinedOutput()
	if cmd.ProcessState == nil {
		t.Fatal(err)
	}
	return string(out), cmd.ProcessState.ExitCode()
}

// wantUsageError asserts a rejection at the flag boundary: status 2
// and a message, not a panic's goroutine dump.
func wantUsageError(t *testing.T, out string, code int) {
	t.Helper()
	if code != 2 || strings.Contains(out, "goroutine") {
		t.Errorf("exit status %d, want 2 without a stack trace; output:\n%s", code, out)
	}
}

func TestWriteRejectsBadConfigBeforeCreatingTheStore(t *testing.T) {
	for _, bad := range []string{"-days=0", "-native=-1", "-roaming=-1", "-segment=-1"} {
		dir := filepath.Join(t.TempDir(), "D")
		out, code := roamstore(t, "write", "-dir", dir, bad)
		wantUsageError(t, out, code)
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Errorf("write %s left %s behind (stat: %v)", bad, dir, err)
		}
	}
}

// TestWriteVerifyReplay drives the archive round trip on one store,
// then holds replay and compact to their day-window checks over it.
func TestWriteVerifyReplay(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "feed")
	csvPath := filepath.Join(t.TempDir(), "replayed.csv")
	for _, args := range [][]string{
		{"write", "-dir", dir, "-native", "60", "-roaming", "40", "-days", "10", "-workers", "1"},
		{"verify", "-dir", dir},
		{"replay", "-dir", dir, "-out", csvPath},
	} {
		if out, code := roamstore(t, args...); code != 0 {
			t.Fatalf("%s exited %d:\n%s", args[0], code, out)
		}
	}
	b, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if cat, err := catalog.ReadCSV(bytes.NewReader(b)); err != nil || len(cat.Records) == 0 || cat.Days != 10 {
		t.Errorf("replayed catalog does not parse as a 10-day catalog with records: %v", err)
	}

	for _, args := range [][]string{
		{"replay", "-dir", dir, "-min-day", "5", "-max-day", "3"},
		{"replay", "-dir", dir, "-min-day", "40"},
		{"compact", "-out", filepath.Join(t.TempDir(), "C"), "-min-day", "5", "-max-day", "3", dir},
	} {
		out, code := roamstore(t, args...)
		wantUsageError(t, out, code)
	}
}
