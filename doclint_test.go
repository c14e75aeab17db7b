// Doc lint: every package in the module must carry a package-level
// doc comment, and the pipeline-facing packages must document every
// exported declaration. The rules themselves live in the godoclint
// analyzer of internal/lint — where roamvet also enforces them — and
// this test is a thin in-process wrapper so that `go test` alone still
// walks the documentation contract. The strict-package set is lint.StrictGodocPackages. Two rules live only
// here because they need the file tree: a comment that names a *.md
// document must name one that exists, and a whereroam.<Name> in the
// documents that describe the current tree must be a name the facade
// exports.
package whereroam

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"whereroam/internal/lint"
)

// packageDirs returns every directory under the module root that
// holds non-test Go files.
func packageDirs(t *testing.T) []string {
	t.Helper()
	seen := map[string]bool{}
	var dirs []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name != "." && (strings.HasPrefix(name, ".") || name == "testdata" || name == "docs") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if !seen[dir] {
			seen[dir] = true
			dirs = append(dirs, dir)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return dirs
}

// parseDir parses one package directory, production files only, with
// comments.
func parseDir(t *testing.T, dir string) (*token.FileSet, map[string]*ast.Package) {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatalf("%s: %v", dir, err)
	}
	return fset, pkgs
}

// lintDir runs godoclint over one package directory (the analyzer is
// syntactic, so no type-check is needed) and returns its diagnostics
// under the directory's module import path.
func lintDir(t *testing.T, dir string) []lint.Diagnostic {
	t.Helper()
	fset, pkgs := parseDir(t, dir)
	path := lint.ModulePath
	if dir != "." {
		path = lint.ModulePath + "/" + filepath.ToSlash(dir)
	}
	var diags []lint.Diagnostic
	for _, name := range sortedKeys(pkgs) {
		pkg := pkgs[name]
		var files []*ast.File
		for _, fname := range sortedKeys(pkg.Files) {
			files = append(files, pkg.Files[fname])
		}
		u := &lint.Unit{Path: path, Fset: fset, Files: files}
		diags = append(diags, lint.Run(u, []*lint.Analyzer{lint.Godoclint})...)
	}
	return diags
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestPackagesHaveDocComments walks every package and requires a
// `// Package ...` (or `// Command ...`) doc comment on at least one
// file.
func TestPackagesHaveDocComments(t *testing.T) {
	for _, dir := range packageDirs(t) {
		for _, d := range lintDir(t, dir) {
			if strings.Contains(d.Message, "package-level doc comment") {
				t.Error(d)
			}
		}
	}
}

// TestExportedAPIDocumented requires godoc on every exported
// top-level declaration — functions, methods on exported receivers,
// types, and var/const specs — in the strict-godoc packages.
func TestExportedAPIDocumented(t *testing.T) {
	for _, dir := range packageDirs(t) {
		for _, d := range lintDir(t, dir) {
			if !strings.Contains(d.Message, "package-level doc comment") {
				t.Error(d)
			}
		}
	}
}

// mdRef matches a Markdown document named in a comment, with any
// directory prefix: EXPERIMENTS.md, docs/ARCHITECTURE.md.
var mdRef = regexp.MustCompile(`[\w./-]*\w\.md\b`)

// TestGodocMarkdownReferencesExist fails on a comment that points the
// reader at a Markdown document the tree does not hold. A reference
// resolves against the module root or the directory of the file that
// makes it. Nested modules (bench/) keep their own documents and are
// not walked.
func TestGodocMarkdownReferencesExist(t *testing.T) {
	exists := func(path string) bool {
		_, err := os.Stat(path)
		return err == nil
	}
	for _, dir := range packageDirs(t) {
		if top, _, _ := strings.Cut(dir, "/"); top != "." && exists(filepath.Join(top, "go.mod")) {
			continue
		}
		fset, pkgs := parseDir(t, dir)
		for _, name := range sortedKeys(pkgs) {
			for _, fname := range sortedKeys(pkgs[name].Files) {
				for _, group := range pkgs[name].Files[fname].Comments {
					for _, c := range group.List {
						for _, ref := range mdRef.FindAllString(c.Text, -1) {
							if !exists(ref) && !exists(filepath.Join(dir, ref)) {
								t.Errorf("%s: comment refers to %s, which does not exist", fset.Position(c.Pos()), ref)
							}
						}
					}
				}
			}
		}
	}
}

// facadeRef matches a facade name as the documents write it.
var facadeRef = regexp.MustCompile(`\bwhereroam\.([A-Z]\w*)`)

// TestMarkdownFacadeReferencesExist fails on a whereroam.<Name> in
// README.md or docs/*.md that the root package does not export, so a
// snippet cannot outlive the name it calls. The logs of past and
// planned work (CHANGES.md, ROADMAP.md, ISSUE.md) quote removed names
// on purpose and are not read.
func TestMarkdownFacadeReferencesExist(t *testing.T) {
	exported := map[string]bool{}
	_, pkgs := parseDir(t, ".")
	for _, name := range sortedKeys(pkgs) {
		for _, f := range pkgs[name].Files {
			for obj := range f.Scope.Objects {
				if ast.IsExported(obj) {
					exported[obj] = true
				}
			}
		}
	}
	docs, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range append([]string{"README.md"}, docs...) {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, m := range facadeRef.FindAllStringSubmatch(line, -1) {
				if !exported[m[1]] {
					t.Errorf("%s:%d: whereroam.%s is not a name the facade exports", doc, i+1, m[1])
				}
			}
		}
	}
}
