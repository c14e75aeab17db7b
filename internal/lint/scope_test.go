package lint_test

import (
	"strings"
	"testing"

	"whereroam/internal/lint"
	"whereroam/internal/lint/linttest"
)

func TestAnalyzersFor(t *testing.T) {
	cases := []struct {
		path string
		want int
	}{
		{lint.ModulePath + "/internal/dataset", len(lint.All)},
		{lint.ModulePath + "/internal/serve", len(lint.All)},
		{lint.ModulePath + "/internal/rng", 1},
		{lint.ModulePath + "/internal/obs", 1},
		{lint.ModulePath + "/cmd/roamvet", 1},
		{lint.ModulePath, 1},
	}
	for _, c := range cases {
		if got := len(lint.AnalyzersFor(c.path)); got != c.want {
			t.Errorf("AnalyzersFor(%q) returned %d analyzers, want %d", c.path, got, c.want)
		}
	}
}

func TestScopePrefixMatching(t *testing.T) {
	if !lint.InDeterministicScope(lint.ModulePath + "/internal/dataset") {
		t.Error("internal/dataset must be in the deterministic scope")
	}
	if !lint.InDeterministicScope(lint.ModulePath + "/internal/dataset/sub") {
		t.Error("subpackages of a deterministic package inherit the scope")
	}
	if lint.InDeterministicScope(lint.ModulePath + "/internal/datasetx") {
		t.Error("prefix matching must respect path-segment boundaries")
	}
	if !lint.InStrictGodocScope(lint.ModulePath + "/internal/ingest") {
		t.Error("internal/ingest is in the strict-godoc set")
	}
	if lint.InStrictGodocScope(lint.ModulePath + "/internal/rng") {
		t.Error("internal/rng is not in the strict-godoc set")
	}
	if !lint.InStrictGodocScope(lint.ModulePath + "/internal/obs") {
		t.Error("internal/obs joined the strict-godoc set in this change")
	}
}

// TestScopeExemptions pins the exemption table's invariants: every
// exempt package is genuinely outside the determinism scope (an entry
// for an in-scope package would be a lie — the analyzers would still
// run), and every exemption carries a substantive reason.
func TestScopeExemptions(t *testing.T) {
	if len(lint.ScopeExemptions) == 0 {
		t.Fatal("ScopeExemptions must document at least internal/obs")
	}
	for path, reason := range lint.ScopeExemptions {
		if lint.InDeterministicScope(path) {
			t.Errorf("%s is listed exempt but is inside the deterministic scope", path)
		}
		if len(strings.TrimSpace(reason)) < 20 {
			t.Errorf("%s: exemption reason is empty or perfunctory: %q", path, reason)
		}
	}
	if _, ok := lint.ScopeExemptions[lint.ModulePath+"/internal/obs"]; !ok {
		t.Error("internal/obs must appear in the exemption table")
	}
}

// TestScopeBoundaryFixtures proves the exemption end to end with twin
// fixtures: the identical time.Now read is clean when analyzed as
// internal/obs code (only godoclint applies) and flagged by rngpurity
// when analyzed as internal/serve code.
func TestScopeBoundaryFixtures(t *testing.T) {
	obsPath := lint.ModulePath + "/internal/obs/linttestfixture"
	linttest.RunAs(t, obsPath, "obsclock", lint.AnalyzersFor(obsPath)...)

	servePath := lint.ModulePath + "/internal/serve/linttestfixture"
	linttest.RunAs(t, servePath, "serveclock", lint.AnalyzersFor(servePath)...)
}

func TestByName(t *testing.T) {
	for _, a := range lint.All {
		if lint.ByName(a.Name) != a {
			t.Errorf("ByName(%q) did not return the analyzer", a.Name)
		}
	}
	if lint.ByName("nosuch") != nil {
		t.Error("ByName of an unknown name must return nil")
	}
}
