// Package lint implements roamvet, the static-analysis suite that
// enforces this repository's determinism contract (the 4-rule list in
// docs/ARCHITECTURE.md) plus the documentation contract, at compile
// time rather than in the runtime determinism suites.
//
// The suite follows the analyzer-per-invariant design of
// golang.org/x/tools/go/analysis, re-implemented on the standard
// library alone (this build environment is offline): an [Analyzer] is
// a named rule with a Run function over a type-checked [Unit], and a
// driver — cmd/roamvet or the in-process test drivers — decides which
// analyzers apply to which packages via [AnalyzersFor].
//
// Analyzers:
//
//   - maporder: flags `range` over a map in the deterministic
//     packages unless the loop only collects into variables that are
//     sorted afterwards in the same function.
//   - rngpurity: forbids global math/rand state, ad-hoc rand.New /
//     rand.NewSource construction, and time.Now in the deterministic
//     packages — randomness must flow through internal/rng substreams
//     and clocks through configuration.
//   - stablesort: flags sort.Slice / slices.SortFunc whose comparison
//     function compares timestamps — ties must use a stable sort or
//     a total-order key (the PR 3 bug class).
//   - floatfold: flags floating-point accumulation inside a map range
//     or inside Merge/fold bodies, where shard or iteration order is
//     not pinned (the PR 4 bug class).
//   - godoclint: the documentation contract — every package carries a
//     package doc comment, and the strict-godoc packages document
//     every exported declaration.
//   - deadcode: the whole-module rule ([RunDeadcode]) — every library
//     declaration is reachable from a binary; see [Deadcode].
//
// A finding at a provably-safe site is suppressed with an annotation
// comment on the flagged line or the line above:
//
//	//roamvet:<analyzer>-ok <reason>
//
// The reason is mandatory; an annotation without one is itself a
// diagnostic. Annotations are deliberately per-site and per-analyzer
// so that every suppression documents why the site cannot break the
// determinism contract.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// ModulePath is the import path of this module; the package scope
// lists below are rooted at it.
const ModulePath = "whereroam"

// DeterministicPackages lists the import-path prefixes of the
// packages bound by the determinism contract: everything on the
// generate → ingest → archive → replay → serve chain whose outputs
// are pinned bit-identical across worker counts and paths. The four
// determinism analyzers (maporder, rngpurity, stablesort, floatfold)
// run only on these.
var DeterministicPackages = []string{
	ModulePath + "/internal/dataset",
	ModulePath + "/internal/catalog",
	ModulePath + "/internal/analysis",
	ModulePath + "/internal/store",
	ModulePath + "/internal/serve",
	ModulePath + "/internal/experiments",
}

// ScopeExemptions documents why packages that sit next to the
// deterministic chain are deliberately outside the determinism scope.
// Every entry is a package import path mapped to the reason it may
// read wall clocks and hold unordered state. The table is the
// authoritative record — scope_test.go asserts each exempt package is
// genuinely out of scope and each reason is non-empty, so an
// accidental scope change surfaces as a test diff, not a silent lint
// gap.
//
//roamvet:deadcode-ok the record scope_test.go asserts against: data for the tests, not for a binary
var ScopeExemptions = map[string]string{
	ModulePath + "/internal/obs": "observability is measurement of the system, not part of it: " +
		"metrics, spans and profiles exist to read wall clocks and mutate shared counters, and " +
		"none of their state flows back into replayed or served bytes. Instrumented packages " +
		"stay in scope — they may only call nil-safe obs hooks, so every clock read lives here.",
}

// StrictGodocPackages lists the import-path prefixes whose exported
// API must be fully documented (the strict half of the documentation
// contract). This is the doclint_test.go strict set plus the
// pipeline-facing internal/ingest and the command scaffold internal/cli.
var StrictGodocPackages = []string{
	ModulePath + "/internal/cli",
	ModulePath + "/internal/ingest",
	ModulePath + "/internal/pipeline",
	ModulePath + "/internal/probe",
	ModulePath + "/internal/catalog",
	ModulePath + "/internal/dataset",
	ModulePath + "/internal/experiments",
	ModulePath + "/internal/store",
	ModulePath + "/internal/serve",
	ModulePath + "/internal/obs",
}

// InDeterministicScope reports whether the package with the given
// import path is bound by the determinism contract.
func InDeterministicScope(path string) bool { return hasPathPrefix(path, DeterministicPackages) }

// InStrictGodocScope reports whether the package with the given
// import path must document every exported declaration.
func InStrictGodocScope(path string) bool { return hasPathPrefix(path, StrictGodocPackages) }

// InModule reports whether path names this module, a package of it,
// or a module nested in it (bench/).
func InModule(path string) bool { return hasPathPrefix(path, []string{ModulePath}) }

func hasPathPrefix(path string, prefixes []string) bool {
	for _, p := range prefixes {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// An Analyzer is one named, self-contained rule of the contract.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //roamvet:<name>-ok annotations. Lowercase, no spaces.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run reports the analyzer's findings on one package via
	// [Pass.Reportf]. Run may assume pass.Files is non-empty;
	// analyzers that need type information must tolerate a nil
	// pass.TypesInfo by returning early (parse-only drivers run the
	// syntactic analyzers alone).
	Run func(pass *Pass)
	// NeedsTypes marks analyzers that cannot run without a
	// type-checked package.
	NeedsTypes bool
}

// All is the full roamvet suite in reporting order.
var All = []*Analyzer{Maporder, RNGPurity, StableSort, FloatFold, Godoclint}

// AnalyzersFor returns the subset of the suite that applies to the
// package with the given import path: the four determinism analyzers
// on the deterministic packages, godoclint everywhere in the module.
func AnalyzersFor(path string) []*Analyzer {
	if InDeterministicScope(path) {
		return All
	}
	return []*Analyzer{Godoclint}
}

// ByName returns the analyzer with the given name — one of the
// per-package suite or the whole-module [Deadcode] — or nil.
func ByName(name string) *Analyzer {
	for _, a := range All {
		if a.Name == name {
			return a
		}
	}
	if name == Deadcode.Name {
		return Deadcode
	}
	return nil
}

// A Unit is one package ready for analysis: parsed files plus, when
// the driver type-checked it, types for every expression. Test files
// are excluded by every driver — the contract binds production code.
type Unit struct {
	// Path is the package import path (e.g. whereroam/internal/store).
	Path string
	// Fset maps token positions for Files.
	Fset *token.FileSet
	// Files holds the parsed non-test files, with comments.
	Files []*ast.File
	// Pkg is the type-checked package, nil for parse-only drivers.
	Pkg *types.Package
	// Info carries type facts for Files, nil for parse-only drivers.
	Info *types.Info
}

// A Diagnostic is one finding, positioned and attributed.
type Diagnostic struct {
	// Pos is the resolved file position of the finding.
	Pos token.Position
	// Analyzer names the rule that fired.
	Analyzer string
	// Message describes the violation and how to resolve it.
	Message string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// A Pass carries one analyzer's run over one unit.
type Pass struct {
	// Analyzer is the rule currently running.
	Analyzer *Analyzer
	// Unit is the package under analysis.
	*Unit

	annots map[annotKey]string // (file,line,analyzer) -> reason
	diags  *[]Diagnostic
}

type annotKey struct {
	file     string
	line     int
	analyzer string
}

// Reportf records a diagnostic at pos unless the flagged line (or the
// line immediately above it) carries a //roamvet:<analyzer>-ok
// annotation with a reason.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if annotated(p.annots, position, p.Analyzer.Name) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// annotated reports whether the line at pos, or the line above it,
// carries a //roamvet:<analyzer>-ok annotation.
func annotated(annots map[annotKey]string, pos token.Position, analyzer string) bool {
	for _, line := range []int{pos.Line, pos.Line - 1} {
		if _, ok := annots[annotKey{pos.Filename, line, analyzer}]; ok {
			return true
		}
	}
	return false
}

// annotRE matches a well-formed suppression: analyzer name, "-ok", a
// mandatory reason.
var annotRE = regexp.MustCompile(`^//roamvet:([a-z]+)-ok\s+(\S.*)$`)

// scanAnnotations indexes every //roamvet: comment in the unit and
// reports malformed ones (missing reason, unknown analyzer) as
// diagnostics of the pseudo-analyzer "roamvet".
func scanAnnotations(u *Unit, diags *[]Diagnostic) map[annotKey]string {
	annots := map[annotKey]string{}
	for _, f := range u.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimRight(c.Text, " \t")
				if !strings.HasPrefix(text, "//roamvet:") {
					continue
				}
				pos := u.Fset.Position(c.Pos())
				m := annotRE.FindStringSubmatch(text)
				if m == nil {
					*diags = append(*diags, Diagnostic{
						Pos:      pos,
						Analyzer: "roamvet",
						Message:  fmt.Sprintf("malformed roamvet annotation %q: want //roamvet:<analyzer>-ok <reason>", text),
					})
					continue
				}
				if ByName(m[1]) == nil {
					*diags = append(*diags, Diagnostic{
						Pos:      pos,
						Analyzer: "roamvet",
						Message:  fmt.Sprintf("roamvet annotation names unknown analyzer %q", m[1]),
					})
					continue
				}
				annots[annotKey{pos.Filename, pos.Line, m[1]}] = m[2]
			}
		}
	}
	return annots
}

// Run applies the given analyzers to one unit and returns the
// surviving diagnostics in position order. Annotation grammar is
// validated once per unit regardless of which analyzers run.
func Run(u *Unit, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	annots := scanAnnotations(u, &diags)
	for _, a := range analyzers {
		if a.NeedsTypes && u.Info == nil {
			continue
		}
		pass := &Pass{Analyzer: a, Unit: u, annots: annots, diags: &diags}
		a.Run(pass)
	}
	sortDiagnostics(diags)
	return diags
}

// sortDiagnostics orders findings by file, line, column, analyzer.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// inspectStack walks the file like ast.Inspect but hands the callback
// the stack of ancestor nodes (outermost first, not including n).
func inspectStack(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		descend := fn(n, stack)
		if descend {
			stack = append(stack, n)
		}
		return descend
	})
}

// pkgFunc resolves a selector expression to (package path, function
// name) when it refers to a package-scope function or value of an
// imported package, using type info. Returns ok=false otherwise.
func pkgFunc(info *types.Info, e ast.Expr) (pkgPath, name string, ok bool) {
	sel, isSel := e.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	id, isIdent := sel.X.(*ast.Ident)
	if !isIdent {
		return "", "", false
	}
	pn, isPkg := info.Uses[id].(*types.PkgName)
	if !isPkg {
		return "", "", false
	}
	return pn.Imported().Path(), sel.Sel.Name, true
}

// isMapType reports whether the expression's type is (or points at) a
// map.
func isMapType(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// isTimeTime reports whether t is time.Time.
func isTimeTime(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "time" && obj.Name() == "Time"
}

// isFloat reports whether t's underlying type is a floating-point
// basic type.
func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
