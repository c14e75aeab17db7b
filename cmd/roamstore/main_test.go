package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"whereroam/internal/catalog"
	"whereroam/internal/cli"
)

// roamstore runs the command in-process and returns its stdout and
// exit status.
func roamstore(args ...string) (string, int) {
	var stdout bytes.Buffer
	code := cli.ExitCode(run(args, &stdout))
	return stdout.String(), code
}

// wantUsageError asserts a rejection at the flag boundary: status 2.
func wantUsageError(t *testing.T, args []string, code int) {
	t.Helper()
	if code != 2 {
		t.Errorf("%v: exit status %d, want 2", args, code)
	}
}

func TestWriteRejectsBadConfigBeforeCreatingTheStore(t *testing.T) {
	for _, bad := range []string{"-days=0", "-native=-1", "-roaming=-1", "-segment=-1"} {
		dir := filepath.Join(t.TempDir(), "D")
		_, code := roamstore("write", "-dir", dir, bad)
		wantUsageError(t, []string{bad}, code)
		if _, err := os.Stat(dir); !os.IsNotExist(err) {
			t.Errorf("write %s left %s behind (stat: %v)", bad, dir, err)
		}
	}
}

// TestWriteVerifyReplay drives the archive round trip on one store,
// then holds replay and compact to their day-window checks over it.
func TestWriteVerifyReplay(t *testing.T) {
	dir := writeStore(t)
	csvPath := filepath.Join(t.TempDir(), "replayed.csv")
	for _, args := range [][]string{
		{"verify", "-dir", dir},
		{"replay", "-dir", dir, "-out", csvPath},
	} {
		if out, code := roamstore(args...); code != 0 {
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
		_, code := roamstore(args...)
		wantUsageError(t, args, code)
	}
}

// writeStore archives a small feed and returns its directory.
func writeStore(t *testing.T) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "feed")
	if out, code := roamstore("write", "-dir", dir, "-native", "60", "-roaming", "40", "-days", "10", "-workers", "1"); code != 0 {
		t.Fatalf("write exited %d:\n%s", code, out)
	}
	return dir
}

// compact refuses a fan-in or segment size the store would otherwise
// silently replace, before anything is created at -out.
func TestCompactRejectsBadSizesBeforeCreatingTheStore(t *testing.T) {
	dir := writeStore(t)
	for _, bad := range []string{"-fanin=-3", "-fanin=1", "-segment=-1"} {
		out := filepath.Join(t.TempDir(), "C")
		_, code := roamstore("compact", "-out", out, bad, dir)
		wantUsageError(t, []string{bad}, code)
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("compact %s left %s behind (stat: %v)", bad, out, err)
		}
	}
	out := filepath.Join(t.TempDir(), "C")
	if stdout, code := roamstore("compact", "-out", out, "-fanin=2", dir); code != 0 {
		t.Fatalf("compact -fanin=2 exited %d:\n%s", code, stdout)
	}
}

func TestRejectsIncompleteCommandLines(t *testing.T) {
	dir := writeStore(t)
	for _, args := range [][]string{
		{},
		{"bogus"},
		{"ls"},
		{"verify"},
		{"write"},
		{"ls", "-dir", dir, "stray"},
		{"compact", "-out", filepath.Join(t.TempDir(), "C")},
		{"compact", dir},
		{"replay", "-dir", dir, "-device", "12zz"},
		{"replay", "-dir", dir, "-visited", "999"},
	} {
		_, code := roamstore(args...)
		wantUsageError(t, args, code)
	}
}

// TestFailedReplayLeavesNoOutput corrupts a sealed segment's body: the
// replay fails with exit status 1 and -out is never created.
func TestFailedReplayLeavesNoOutput(t *testing.T) {
	dir := writeStore(t)
	seg := filepath.Join(dir, "seg-000000.wrseg")
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(seg, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, err = f.WriteAt([]byte("corrupt!"), fi.Size()/2)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		t.Fatal(err)
	}
	outDir := t.TempDir()
	if _, code := roamstore("replay", "-dir", dir, "-out", filepath.Join(outDir, "x.csv")); code != 1 {
		t.Errorf("replay over a corrupt segment exited %d, want 1", code)
	}
	if es, _ := os.ReadDir(outDir); len(es) != 0 {
		t.Errorf("a failed replay left %d entries beside -out", len(es))
	}
}
