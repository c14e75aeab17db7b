package main

import (
	"io"
	"os"
	"path/filepath"
	"testing"

	"whereroam/internal/cli"
)

// rejects asserts that args fail with exit status 2 and create nothing
// at -out.
func rejects(t *testing.T, args ...string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "s.csv")
	if code := cli.ExitCode(run(append(args, "-out", path), io.Discard)); code != 2 {
		t.Errorf("%v: exit status %d, want 2", args, code)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("%v left %s behind (stat: %v)", args, path, err)
	}
}

func TestNBIoTOutsideUnitIntervalRejected(t *testing.T) {
	for _, v := range []string{"1.7", "-0.5", "NaN"} {
		rejects(t, "-native", "20", "-roaming", "20", "-nbiot", v)
	}
}

func TestRejectsBadConfigBeforeCreatingOutput(t *testing.T) {
	for _, bad := range [][]string{{"-days", "0"}, {"-native", "-5"}, {"-roaming", "-1"}, {"stray"}} {
		rejects(t, bad...)
	}
}

// TestUnwritableOutputLeavesNothing: a missing -out directory fails the
// run with exit status 1, and nothing is left beside it.
func TestUnwritableOutputLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{"-native", "20", "-roaming", "20", "-out", filepath.Join(dir, "nodir", "s.csv")}, io.Discard)
	if cli.ExitCode(err) != 1 {
		t.Fatalf("run = %v, want a failure with exit status 1", err)
	}
	if es, _ := os.ReadDir(dir); len(es) != 0 {
		t.Errorf("a failed run left %d entries behind", len(es))
	}
}
