package lint

import (
	"go/ast"
	"go/token"
	"regexp"
)

// StableSort flags sort.Slice (and slices.SortFunc) calls whose
// comparison function compares timestamps. Timestamp keys tie — two
// records in the same nanosecond, two events on the same day — and
// sort.Slice is explicitly unstable, so the relative order of tied
// elements depends on the input permutation, which in this repository
// depends on the worker count. That was exactly the PR 3 bug: a timestamp sort over
// shard-merged transactions reordered ties across worker counts.
// Tie-prone sorts must either be stable (sort.SliceStable,
// slices.SortStableFunc, sort.Stable — preserving the pinned upstream
// order) or extend the key to a total order, in which case the site
// carries //roamvet:stablesort-ok <reason>.
var StableSort = &Analyzer{
	Name:       "stablesort",
	Doc:        "flags unstable sorts whose comparison key is a timestamp",
	NeedsTypes: true,
	Run:        runStableSort,
}

// timeishName matches selector names that conventionally carry
// integer timestamps (Time, Timestamp, UnixNanos, ...).
var timeishName = regexp.MustCompile(`(?i)(time|stamp|nanos)`)

func runStableSort(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			pkg, name, ok := pkgFunc(pass.Info, call.Fun)
			if !ok {
				return true
			}
			var less ast.Expr
			switch {
			case pkg == "sort" && name == "Slice" && len(call.Args) == 2:
				less = call.Args[1]
			case pkg == "slices" && name == "SortFunc" && len(call.Args) == 2:
				less = call.Args[1]
			default:
				return true
			}
			fl, ok := less.(*ast.FuncLit)
			if !ok {
				return true
			}
			if comparesTimestamps(pass, fl) {
				pass.Reportf(call.Pos(), "unstable %s.%s with a timestamp comparison key: ties reorder with the input permutation; use sort.SliceStable or a total-order key, or annotate //roamvet:stablesort-ok <reason>", pkg, name)
			}
			return true
		})
	}
}

// comparesTimestamps reports whether the comparison function's body
// compares time.Time values (via <, >, Before, After or Compare) or
// orders by a field whose name is timestamp-like (via <, > or
// cmp.Compare).
func comparesTimestamps(pass *Pass, fl *ast.FuncLit) bool {
	found := false
	timeish := func(op ast.Expr) bool {
		if t := pass.Info.TypeOf(op); t != nil && isTimeTime(t) {
			return true
		}
		sel, ok := op.(*ast.SelectorExpr)
		return ok && timeishName.MatchString(sel.Sel.Name)
	}
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch e := n.(type) {
		case *ast.BinaryExpr:
			switch e.Op {
			case token.LSS, token.GTR, token.LEQ, token.GEQ:
				found = timeish(e.X) || timeish(e.Y)
			}
		case *ast.CallExpr:
			if pkg, name, ok := pkgFunc(pass.Info, e.Fun); ok {
				found = pkg == "cmp" && name == "Compare" && len(e.Args) == 2 &&
					(timeish(e.Args[0]) || timeish(e.Args[1]))
			} else if sel, ok := e.Fun.(*ast.SelectorExpr); ok {
				switch sel.Sel.Name {
				case "Before", "After", "Compare":
					t := pass.Info.TypeOf(sel.X)
					found = t != nil && isTimeTime(t)
				}
			}
		}
		return !found
	})
	return found
}
