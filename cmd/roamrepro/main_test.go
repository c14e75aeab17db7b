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

// TestFederationWithArchive runs one fed-* experiment with every
// federation flag set: two explicit hosts, a per-site archive in small
// segments, and a heap budget no run of this size comes near.
func TestFederationWithArchive(t *testing.T) {
	dir := t.TempDir()
	var stdout bytes.Buffer
	err := run([]string{"-experiment", "fed-sites", "-scale", "0.03", "-hosts", "23410, 26201",
		"-archive", dir, "-archive-segment", "256", "-max-heap-mib", "4096"}, &stdout)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stdout.String(), "(fed-sites ran in ") {
		t.Errorf("report lacks the fed-sites run:\n%s", stdout.String())
	}
	sites, _ := filepath.Glob(filepath.Join(dir, "site-*"))
	if len(sites) != 2 {
		t.Errorf("archive holds %v, want one store per -hosts entry", sites)
	}
}

// An -archive path that is a regular file fails the run with status 1
// — an error, not a panic — before any report, and leaves the
// directory holding it as it was.
func TestArchiveOntoFileFails(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "fed")
	if err := os.WriteFile(file, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout bytes.Buffer
	err := run([]string{"-experiment", "fed-sites", "-scale", "0.03", "-archive", file}, &stdout)
	if code := cli.ExitCode(err); code != 1 {
		t.Fatalf("exit status %d (%v), want 1", code, err)
	}
	if stdout.Len() != 0 {
		t.Errorf("the failed run printed a report:\n%s", stdout.String())
	}
	entries, _ := os.ReadDir(dir)
	if body, _ := os.ReadFile(file); len(entries) != 1 || string(body) != "not a directory" {
		t.Errorf("the failed run left %d entries and the file reading %q", len(entries), body)
	}
}

func TestRejectsBadCommandLines(t *testing.T) {
	for _, args := range [][]string{
		{"-scale", "0"},
		{"-scale", "-1"},
		{"-scale", "NaN"},
		{"-scale", "+Inf"},
		{"-scale", "0.02", "fig11"},
		{"-hosts", "999"},
		{"-hosts", "23410,23410"},
		{"-experiment", "fig99"},
	} {
		if code := cli.ExitCode(run(args, io.Discard)); code != 2 {
			t.Errorf("%v: exit status %d, want 2", args, code)
		}
	}
}
