package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"whereroam/internal/cli"
)

func TestWritesBinaryAndCSV(t *testing.T) {
	dir := t.TempDir()
	for _, out := range []string{"m.bin", "m.csv"} {
		path := filepath.Join(dir, out)
		args := []string{"-devices", "40", "-days", "2", "-out", path}
		if strings.HasSuffix(out, ".csv") {
			args = append(args, "-csv")
		}
		var stdout bytes.Buffer
		if err := run(args, &stdout); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		fi, err := os.Stat(path)
		if err != nil || fi.Size() == 0 || !strings.HasPrefix(stdout.String(), "wrote "+path) {
			t.Errorf("%v: stat %v (%v), stdout %q", args, fi, err, stdout.String())
		}
	}
	if es, _ := os.ReadDir(dir); len(es) != 2 {
		t.Errorf("output directory holds %d entries, want the two outputs", len(es))
	}
}

func TestRejectsBadConfigBeforeCreatingOutput(t *testing.T) {
	for _, bad := range [][]string{
		{"-devices", "0"}, {"-days", "-1"}, {"-sample", "0"}, {"-sample", "5"}, {"-sample", "NaN"},
		{"-policy", "x"}, {"stray"},
	} {
		path := filepath.Join(t.TempDir(), "m.bin")
		if code := cli.ExitCode(run(append(bad, "-out", path), io.Discard)); code != 2 {
			t.Errorf("%v: exit status %d, want 2", bad, code)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Errorf("%v left %s behind (stat: %v)", bad, path, err)
		}
	}
}

// TestUnwritableOutputLeavesNothing: a missing -out directory fails the
// run with exit status 1, and nothing is left beside it.
func TestUnwritableOutputLeavesNothing(t *testing.T) {
	dir := t.TempDir()
	err := run([]string{"-devices", "40", "-days", "2", "-out", filepath.Join(dir, "nodir", "m.bin")}, io.Discard)
	if cli.ExitCode(err) != 1 {
		t.Fatalf("run = %v, want a failure with exit status 1", err)
	}
	if es, _ := os.ReadDir(dir); len(es) != 0 {
		t.Errorf("a failed run left %d entries behind", len(es))
	}
}
