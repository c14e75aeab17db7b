// Package linttest runs roamvet analyzers over fixture packages under
// testdata/src and checks their diagnostics against the fixtures'
// // want comments — the analysistest idiom of golang.org/x/tools,
// re-implemented on the standard library because this build
// environment is offline.
//
// A fixture line that must be flagged carries a trailing comment
// holding one quoted or backquoted regular expression per expected
// diagnostic on that line:
//
//	for k := range m { // want `range over map`
//
// Each expectation must match the message of exactly one diagnostic
// reported on its line. Diagnostics with no matching expectation, and
// expectations with no matching diagnostic, fail the test — so a
// fixture line without a want comment doubles as a negative case.
package linttest

import (
	"fmt"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"whereroam/internal/lint"
	"whereroam/internal/lint/driver"
)

// DefaultPath is the import path fixture packages are analyzed under.
// It sits inside both the deterministic and strict-godoc scopes, so
// every analyzer treats the fixture as fully in contract.
const DefaultPath = lint.ModulePath + "/internal/dataset/linttestfixture"

// Run analyzes the fixture package testdata/src/<fixture> under
// [DefaultPath] with the given analyzers and compares diagnostics
// against the fixture's want comments.
func Run(t *testing.T, fixture string, analyzers ...*lint.Analyzer) {
	t.Helper()
	RunAs(t, DefaultPath, fixture, analyzers...)
}

// RunAs is Run with an explicit unit import path, for exercising
// scope-sensitive behavior (godoclint's strict set membership).
func RunAs(t *testing.T, unitPath, fixture string, analyzers ...*lint.Analyzer) {
	t.Helper()
	dir := filepath.Join("testdata", "src", fixture)
	files, err := fixtureFiles(dir)
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}
	exports, err := driver.Exports(".", fixtureImports(t, files)...)
	if err != nil {
		t.Fatalf("linttest: resolving fixture imports: %v", err)
	}
	fset := token.NewFileSet()
	u, err := driver.Check(unitPath, files, fset, driver.NewImporter(fset, exports))
	if err != nil {
		t.Fatalf("linttest: type-checking %s: %v", dir, err)
	}
	diags := lint.Run(u, analyzers)
	wants, err := parseWants(files)
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}
	match(t, diags, wants)
}

// ModulePrefix is the import path fixture modules live under: the
// package in testdata/src/<fixture>/<dir> is imported as
// ModulePrefix/<fixture>/<dir>.
const ModulePrefix = lint.ModulePath + "/linttestfixture"

// RunModule type-checks every package directory of the fixture module
// testdata/src/<fixture> — resolving the fixture's own packages from
// source and everything else from export data — hands all units to a
// whole-module check, and compares its diagnostics against the want
// comments of every file.
func RunModule(t *testing.T, fixture string, check func([]*lint.Unit) []lint.Diagnostic) {
	t.Helper()
	root := filepath.Join("testdata", "src", fixture)
	entries, err := os.ReadDir(root)
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}
	var all []string
	byPath := map[string][]string{}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		files, err := fixtureFiles(filepath.Join(root, e.Name()))
		if err != nil {
			t.Fatalf("linttest: %v", err)
		}
		byPath[ModulePrefix+"/"+fixture+"/"+e.Name()] = files
		all = append(all, files...)
	}
	var std []string
	for _, p := range fixtureImports(t, all) {
		if _, own := byPath[p]; !own {
			std = append(std, p)
		}
	}
	exports, err := driver.Exports(".", std...)
	if err != nil {
		t.Fatalf("linttest: resolving fixture imports: %v", err)
	}
	fset := token.NewFileSet()
	stdImp := driver.NewImporter(fset, exports)
	loaded := map[string]*lint.Unit{}
	var imp driver.ImporterFunc
	imp = func(path string) (*types.Package, error) {
		files, own := byPath[path]
		if !own {
			return stdImp.Import(path)
		}
		if loaded[path] == nil {
			u, err := driver.Check(path, files, fset, imp)
			if err != nil {
				return nil, err
			}
			loaded[path] = u
		}
		return loaded[path].Pkg, nil
	}
	var units []*lint.Unit
	for path := range byPath {
		if _, err := imp(path); err != nil {
			t.Fatalf("linttest: type-checking %s: %v", path, err)
		}
		units = append(units, loaded[path])
	}
	wants, err := parseWants(all)
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}
	match(t, check(units), wants)
}

// fixtureFiles lists the .go sources of a fixture directory.
func fixtureFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no fixture files in %s", dir)
	}
	return files, nil
}

// fixtureImports collects the distinct import paths of the fixture
// files (production and test alike — the parse is imports-only, so
// test files cost nothing even though drivers skip them).
func fixtureImports(t *testing.T, files []string) []string {
	t.Helper()
	seen := map[string]bool{}
	var paths []string
	fset := token.NewFileSet()
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatalf("linttest: %v", err)
		}
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil || seen[p] {
				continue
			}
			seen[p] = true
			paths = append(paths, p)
		}
	}
	return paths
}

// A want is one expected diagnostic: a message pattern anchored to a
// file and line.
type want struct {
	file    string
	line    int
	rx      *regexp.Regexp
	matched bool
}

// wantRE finds the expectation list of a line; wantArgRE splits it
// into individual quoted or backquoted patterns.
var (
	wantRE    = regexp.MustCompile(`//\s*want\s+(.+)$`)
	wantArgRE = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")
)

// parseWants extracts every want expectation from the fixture sources.
// Test files carry no expectations by construction: drivers exclude
// them, so a want there could never be satisfied.
func parseWants(files []string) ([]*want, error) {
	var wants []*want
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		data, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			args := wantArgRE.FindAllString(m[1], -1)
			if len(args) == 0 {
				return nil, fmt.Errorf("%s:%d: want comment with no quoted pattern", name, i+1)
			}
			for _, arg := range args {
				pat, err := strconv.Unquote(arg)
				if err != nil {
					return nil, fmt.Errorf("%s:%d: bad want pattern %s: %v", name, i+1, arg, err)
				}
				rx, err := regexp.Compile(pat)
				if err != nil {
					return nil, fmt.Errorf("%s:%d: bad want regexp %q: %v", name, i+1, pat, err)
				}
				wants = append(wants, &want{file: name, line: i + 1, rx: rx})
			}
		}
	}
	return wants, nil
}

// match pairs each diagnostic with one expectation on its line and
// reports both unexpected diagnostics and unmatched expectations.
func match(t *testing.T, diags []lint.Diagnostic, wants []*want) {
	t.Helper()
	for _, d := range diags {
		found := false
		for _, w := range wants {
			if w.matched || w.file != d.Pos.Filename || w.line != d.Pos.Line {
				continue
			}
			if w.rx.MatchString(d.Message) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.rx)
		}
	}
}
