// The roamvet clean-tree gate: the full analyzer suite must run
// clean over the real module, in process — the same invariant CI
// enforces through `go vet -vettool=roamvet ./...`. Every surviving
// map range, float fold, sort and clock in the deterministic packages
// is therefore either mechanically safe or carries an annotated
// justification, and every library declaration is reachable from a
// binary or annotated with the reason it stays.
package whereroam

import (
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
