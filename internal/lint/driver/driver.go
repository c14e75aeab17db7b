// Package driver loads and type-checks Go packages for the roamvet
// analyzers using only the standard library and the go command.
//
// [Load] shells out to `go list -export -json -deps`, which resolves
// the module graph and hands back compiled export data for every
// dependency straight from the build cache; the target packages are
// then parsed from source and type-checked against an export-data
// importer. This backs `roamvet ./...` and the in-process clean-tree
// test; [Exports] is the same listing for drivers that type-check
// sources outside the module graph.
//
// Only production files are analyzed — _test.go files are filtered
// out, because the determinism contract binds the shipped pipeline,
// not its tests (which are free to use wall clocks and throwaway
// maps).
package driver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"

	"whereroam/internal/lint"
)

// A listPackage is the subset of `go list -json` output the driver
// consumes.
type listPackage struct {
	// ImportPath is the canonical package path.
	ImportPath string
	// Dir is the directory holding the package sources.
	Dir string
	// GoFiles lists the non-test Go sources (relative to Dir).
	GoFiles []string
	// CgoFiles lists cgo sources; packages with any are skipped.
	CgoFiles []string
	// Export is the export-data file produced by -export.
	Export string
	// Standard marks standard-library packages.
	Standard bool
	// DepOnly marks packages listed only as dependencies.
	DepOnly bool
	// Module carries module info for main-module membership checks.
	Module *struct{ Path string }
	// Error carries a load error for this package, if any.
	Error *struct{ Err string }
}

// list runs `go list -e -export -json -deps` on patterns in dir and
// returns every listed package, dependencies first, with the
// export-data file of each package that has one, keyed by import path.
func list(dir string, patterns ...string) ([]listPackage, map[string]string, error) {
	args := append([]string{"list", "-e", "-export", "-json", "-deps"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	var pkgs []listPackage
	exports := map[string]string{}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, nil, fmt.Errorf("go list decode: %v", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, exports, nil
}

// Load lists patterns in dir with the go command and returns one
// type-checked [lint.Unit] per matched package of this module,
// type-checking target sources against the export data of their
// dependencies. Packages listed only as dependencies are not
// analyzed.
func Load(dir string, patterns ...string) ([]*lint.Unit, error) {
	pkgs, exports, err := list(dir, patterns...)
	if err != nil {
		return nil, err
	}
	var units []*lint.Unit
	for _, p := range pkgs {
		if p.DepOnly || p.Standard || p.Module == nil || !lint.InModule(p.Module.Path) {
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("%s: %s", p.ImportPath, p.Error.Err)
		}
		if len(p.CgoFiles) > 0 {
			continue
		}
		var files []string
		for _, f := range p.GoFiles {
			files = append(files, filepath.Join(p.Dir, f))
		}
		fset := token.NewFileSet()
		u, err := Check(p.ImportPath, files, fset, NewImporter(fset, exports))
		if err != nil {
			return nil, fmt.Errorf("%s: %v", p.ImportPath, err)
		}
		units = append(units, u)
	}
	return units, nil
}

// Exports resolves export-data files for the given packages and all
// their dependencies via `go list -export -json -deps`, keyed by
// import path. Drivers that type-check sources living outside the
// module graph — the linttest fixture runner — use it to satisfy the
// fixtures' (standard-library) imports. dir is the working directory
// for the go command.
func Exports(dir string, pkgs ...string) (map[string]string, error) {
	if len(pkgs) == 0 {
		return map[string]string{}, nil
	}
	_, exports, err := list(dir, pkgs...)
	return exports, err
}

// ImporterFunc adapts a function to types.Importer.
type ImporterFunc func(path string) (*types.Package, error)

// Import implements types.Importer.
func (f ImporterFunc) Import(path string) (*types.Package, error) { return f(path) }

// NewImporter returns a types.Importer that reads gc export data:
// packageFile maps import paths to export-data files (compiled package
// archives from the build cache).
func NewImporter(fset *token.FileSet, packageFile map[string]string) types.Importer {
	compilerImporter := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := packageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	return ImporterFunc(func(path string) (*types.Package, error) {
		if path == "unsafe" {
			return types.Unsafe, nil
		}
		return compilerImporter.Import(path)
	})
}

// Check parses the given files (skipping _test.go files) into fset —
// which must be the same FileSet the importer was built over — and
// type-checks them as package path using imp to resolve imports,
// returning a unit ready for [lint.Run]. The unit has nil type info —
// still usable by the syntactic analyzers — only if files is empty
// after filtering.
func Check(path string, files []string, fset *token.FileSet, imp types.Importer) (*lint.Unit, error) {
	var parsed []*ast.File
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		parsed = append(parsed, f)
	}
	u := &lint.Unit{Path: path, Fset: fset, Files: parsed}
	if len(parsed) == 0 {
		return u, nil
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Instances:  map[*ast.Ident]types.Instance{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
	conf := types.Config{
		Importer: imp,
		Sizes:    types.SizesFor("gc", runtime.GOARCH),
	}
	pkg, err := conf.Check(path, fset, parsed, info)
	if err != nil {
		return nil, err
	}
	u.Pkg = pkg
	u.Info = info
	return u, nil
}
