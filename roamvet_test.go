// The roamvet clean-tree gate: the full analyzer suite must run
// clean over the real module, in process — the same invariant CI
// enforces through `roamvet ./...`. Every surviving
// map range, float fold, sort and clock in the deterministic packages
// is therefore either mechanically safe or carries an annotated
// justification, and every library declaration is reachable from a
// binary or annotated with the reason it stays.
package whereroam

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"whereroam/internal/lint"
	"whereroam/internal/lint/driver"
)

func TestRoamvetCleanTree(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go list -export")
	}
	units, err := driver.Load(".", "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(units) == 0 {
		t.Fatal("driver.Load returned no packages")
	}
	deterministic := 0
	for _, u := range units {
		if lint.InDeterministicScope(u.Path) {
			deterministic++
		}
		for _, d := range lint.Run(u, lint.AnalyzersFor(u.Path)) {
			t.Error(d)
		}
	}
	if want := len(lint.DeterministicPackages); deterministic < want {
		t.Errorf("only %d deterministic packages loaded, want at least %d — scope drift?", deterministic, want)
	}

	// The whole-module rule: nothing under internal/ or in the facade
	// may be unreachable from cmd/, examples/ and the nested bench/
	// module, which `./...` never lists.
	bench, err := driver.Load("bench", "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(bench) == 0 {
		t.Fatal("driver.Load returned no bench package")
	}
	for _, d := range lint.RunDeadcode(append(units, bench...)) {
		t.Error(d)
	}
}

// maxDeadcodeOK caps the deadcode rule's escape hatch: the annotations
// left keep the paper's data model, test oracles with no production
// twin (store.Reader.ReplayRecords, signaling.Reader) and interface
// plumbing. A new one must retire an old one or raise the cap in
// review.
const maxDeadcodeOK = 12

func TestDeadcodeAnnotationRatchet(t *testing.T) {
	n := 0
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == filepath.Join("internal", "lint") || path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, line := range strings.Split(string(src), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "//roamvet:deadcode-ok") {
				n++
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if n > maxDeadcodeOK {
		t.Errorf("%d roamvet:deadcode-ok annotations outside internal/lint, at most %d allowed", n, maxDeadcodeOK)
	}
}
