// Package driver loads and type-checks Go packages for the roamvet
// analyzers using only the standard library and the go command.
//
// Two load paths converge on the same [Check] + [lint.Run] core:
//
//   - [Load] shells out to `go list -export -json -deps`, which
//     resolves the module graph and hands back compiled export data
//     for every dependency straight from the build cache; the target
//     packages are then parsed from source and type-checked against
//     an export-data importer. This backs the standalone
//     `roamvet ./...` mode and the in-process clean-tree test.
//   - [RunVetCfg] implements the `go vet -vettool` unit protocol
//     (the unitchecker contract of golang.org/x/tools, re-implemented
//     here because this build environment is offline): the go command
//     invokes the tool once per package with a JSON config naming the
//     files, the import map and the dependencies' export files.
//
// Both paths analyze production files only — _test.go files are
// filtered out, because the determinism contract binds the shipped
// pipeline, not its tests (which are free to use wall clocks and
// throwaway maps).
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

// Load lists patterns in dir with the go command and returns one
// type-checked [lint.Unit] per matched package of this module,
// type-checking target sources against the export data of their
// dependencies. Packages listed only as dependencies are not
// analyzed.
func Load(dir string, patterns ...string) ([]*lint.Unit, error) {
	args := append([]string{"list", "-e", "-export", "-json", "-deps"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	var targets []*listPackage
	exports := map[string]string{}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list decode: %v", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if p.DepOnly || p.Standard || p.Module == nil || !lint.InModule(p.Module.Path) {
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("%s: %s", p.ImportPath, p.Error.Err)
		}
		if len(p.CgoFiles) > 0 {
			continue
		}
		pkg := p
		targets = append(targets, &pkg)
	}
	var units []*lint.Unit
	for _, p := range targets {
		var files []string
		for _, f := range p.GoFiles {
			files = append(files, filepath.Join(p.Dir, f))
		}
		fset := token.NewFileSet()
		u, err := Check(p.ImportPath, files, fset, NewImporter(fset, nil, exports))
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
	args := append([]string{"list", "-e", "-export", "-json", "-deps"}, pkgs...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	exports := map[string]string{}
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list decode: %v", err)
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return exports, nil
}

// ImporterFunc adapts a function to types.Importer.
type ImporterFunc func(path string) (*types.Package, error)

// Import implements types.Importer.
func (f ImporterFunc) Import(path string) (*types.Package, error) { return f(path) }

// NewImporter returns a types.Importer that reads gc export data:
// importMap (which may be nil) translates import paths as written to
// canonical package paths, and packageFile maps canonical paths to
// export-data files (compiled package archives from the build cache).
func NewImporter(fset *token.FileSet, importMap, packageFile map[string]string) types.Importer {
	compilerImporter := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := packageFile[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	return ImporterFunc(func(path string) (*types.Package, error) {
		if mapped, ok := importMap[path]; ok {
			path = mapped
		}
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

// vetConfig is the JSON unit description the go command hands a
// -vettool, one file per package (the unitchecker contract).
type vetConfig struct {
	// ID is the package ID ("path" or "path [variant]").
	ID string
	// Compiler names the compiler providing export data ("gc").
	Compiler string
	// Dir is the package directory.
	Dir string
	// ImportPath is the canonical package path.
	ImportPath string
	// GoVersion is the language version to type-check under.
	GoVersion string
	// GoFiles lists the absolute paths of the unit's Go sources.
	GoFiles []string
	// ImportMap maps import paths as written to canonical paths.
	ImportMap map[string]string
	// PackageFile maps canonical paths to export-data files.
	PackageFile map[string]string
	// VetxOnly marks dependency units driven only for facts — the
	// roamvet suite is fact-free, so these are skipped outright.
	VetxOnly bool
	// VetxOutput is the facts file the go command expects the tool
	// to write (an empty placeholder here).
	VetxOutput string
	// SucceedOnTypecheckFailure asks the tool to exit 0 on type
	// errors (the build will report them better).
	SucceedOnTypecheckFailure bool
}

// RunVetCfg analyzes the single package described by the vet config
// file at cfgPath, printing diagnostics to w in the go vet format.
// It returns the number of diagnostics; the caller turns that into
// the exit-2 protocol. Units outside this module, facts-only units
// and pure-test units are no-ops.
func RunVetCfg(cfgPath string, w io.Writer) (int, error) {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		return 0, err
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return 0, fmt.Errorf("%s: %v", cfgPath, err)
	}
	// The go command caches facts via VetxOutput; roamvet has none,
	// but writes the placeholder so downstream cache entries resolve.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte("roamvet: no facts\n"), 0o666); err != nil {
			return 0, err
		}
	}
	if cfg.VetxOnly || strings.Contains(cfg.ID, ".test") || strings.Contains(cfg.ImportPath, " [") {
		return 0, nil
	}
	if !lint.InModule(cfg.ImportPath) {
		return 0, nil
	}
	fset := token.NewFileSet()
	u, err := Check(cfg.ImportPath, cfg.GoFiles, fset, NewImporter(fset, cfg.ImportMap, cfg.PackageFile))
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0, nil
		}
		return 0, err
	}
	if len(u.Files) == 0 {
		return 0, nil
	}
	diags := lint.Run(u, lint.AnalyzersFor(cfg.ImportPath))
	for _, d := range diags {
		fmt.Fprintf(w, "%s: %s [%s]\n", d.Pos, d.Message, d.Analyzer)
	}
	return len(diags), nil
}
