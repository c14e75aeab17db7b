package main

import (
	"bytes"
	"io"
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
