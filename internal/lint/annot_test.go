package lint_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"whereroam/internal/lint"
)

// parseUnit builds a parse-only unit from one synthetic source file.
// Annotation grammar is validated by lint.Run whatever analyzers run,
// so these tests pass none.
func parseUnit(t *testing.T, src string) *lint.Unit {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "annot.go", src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	return &lint.Unit{Path: lint.ModulePath + "/internal/dataset", Fset: fset, Files: []*ast.File{f}}
}

func TestAnnotationMissingReason(t *testing.T) {
	u := parseUnit(t, `// Package p is a fixture.
package p

//roamvet:maporder-ok
func f() {}
`)
	diags := lint.Run(u, nil)
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics %v, want 1", len(diags), diags)
	}
	if diags[0].Analyzer != "roamvet" || !strings.Contains(diags[0].Message, "malformed roamvet annotation") {
		t.Errorf("unexpected diagnostic: %s", diags[0])
	}
}

func TestAnnotationUnknownAnalyzer(t *testing.T) {
	u := parseUnit(t, `// Package p is a fixture.
package p

//roamvet:frobnicate-ok because reasons
func f() {}
`)
	diags := lint.Run(u, nil)
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics %v, want 1", len(diags), diags)
	}
	if diags[0].Analyzer != "roamvet" || !strings.Contains(diags[0].Message, `unknown analyzer "frobnicate"`) {
		t.Errorf("unexpected diagnostic: %s", diags[0])
	}
}

func TestAnnotationWellFormed(t *testing.T) {
	u := parseUnit(t, `// Package p is a fixture.
package p

//roamvet:maporder-ok the loop only counts, and counting commutes
func f() {}

//roamvet:deadcode-ok test oracle: the whole-module rule's annotations share the grammar
func g() {}
`)
	if diags := lint.Run(u, nil); len(diags) != 0 {
		t.Fatalf("got %d diagnostics %v, want 0", len(diags), diags)
	}
}
