package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Deadcode is the whole-module reachability rule: every package-level
// declaration of a library package — function, method, type, var,
// const — must be reachable from a binary. Roots are every declaration
// of a main package (cmd/, examples/ and the nested bench/ module,
// whose units the driver must load too: `go list ./...` from the
// module root never sees it), every declaration of a test-support
// package (package name ending in "test", the httptest/linttest
// convention), every init function and blank package-level var, and
// every declaration annotated //roamvet:deadcode-ok <reason> (test
// oracles, the paper's data model). Reachability follows identifier
// uses from reached declarations. A method is reached when it is
// selected directly; or when its receiver type is reached and either
// the module calls a method of that name through an interface, or the
// type satisfies an interface an imported standard-library package
// exports and the method is one of that interface's (the calls
// go/types cannot see: fmt → String, sort → Less, net/http →
// ServeHTTP). A const of a named type declared in its own package is
// reached with that type: an enumeration's values are part of its
// definition. Test files are invisible, so "its own tests call it"
// keeps nothing alive — which is the point.
//
// The rule needs every unit of the module at once, so it has no
// per-package Run: drivers that hold the whole module call
// [RunDeadcode].
var Deadcode = &Analyzer{
	Name:       "deadcode",
	Doc:        "flags library declarations no binary, test-support package or init can reach",
	NeedsTypes: true,
}

// A deadDecl is one package-level declaration in the reachability
// graph. Names of one var/const spec share its node.
type deadDecl struct {
	unit *Unit
	node ast.Node  // *ast.FuncDecl, *ast.TypeSpec or *ast.ValueSpec
	pos  token.Pos // of the declared name
	kind string    // "func", "method", "type", "var", "const"
	name string    // as reported: Name or Type.Method
	// recv and method are the receiver type's key and the bare method
	// name for methods; enumOf is the key of a const's named type.
	recv, method, enumOf string
	root, reached        bool
}

type deadGraph struct {
	decls  map[string]*deadDecl
	queue  []*deadDecl
	called map[string]bool    // method names invoked through a module interface
	std    []*types.Interface // exported by the imported standard-library packages, plus error
	viaStd map[string]bool    // keys of methods a std interface's user may call
}

// RunDeadcode applies the [Deadcode] rule to the units of one whole
// module (nested modules included) and returns its findings in
// position order.
func RunDeadcode(units []*Unit) []Diagnostic {
	g := &deadGraph{decls: map[string]*deadDecl{}, called: map[string]bool{}, viaStd: map[string]bool{}}
	g.std = append(g.std, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, u := range units {
		if u.Info == nil {
			continue
		}
		for _, imp := range u.Pkg.Imports() {
			if !InModule(imp.Path()) {
				g.addStdInterfaces(imp)
			}
		}
	}
	for _, u := range units {
		if u.Info != nil {
			g.declare(u)
		}
	}
	for _, d := range g.decls {
		if d.root {
			g.reach(d)
		}
	}
	for {
		for len(g.queue) > 0 {
			d := g.queue[len(g.queue)-1]
			g.queue = g.queue[:len(g.queue)-1]
			g.scan(d.unit, d.node)
		}
		// Rules that depend on what has been reached so far.
		for _, d := range g.decls {
			switch {
			case d.reached:
			case d.method != "" && (g.called[d.method] || g.viaStd[d.recv+"."+d.method]) && g.isReached(d.recv),
				d.enumOf != "" && g.isReached(d.enumOf):
				g.reach(d)
			}
		}
		if len(g.queue) == 0 {
			break
		}
	}
	var diags []Diagnostic
	for _, d := range g.decls {
		if d.reached || d.method != "" && !g.isReached(d.recv) {
			continue // a dead type's finding covers its methods
		}
		diags = append(diags, Diagnostic{
			Pos:      d.unit.Fset.Position(d.pos),
			Analyzer: Deadcode.Name,
			Message: d.kind + " " + d.name + " is unreachable from every binary (cmd/, examples/, bench/): " +
				"delete it together with the tests that exercise only it, or annotate //roamvet:deadcode-ok <reason>",
		})
	}
	sortDiagnostics(diags)
	return diags
}

// declare enters u's package-level declarations into the graph.
func (g *deadGraph) declare(u *Unit) {
	var ignored []Diagnostic // grammar errors are reported by Run
	annots := scanAnnotations(u, &ignored)
	allRoots := u.Pkg.Name() == "main" || strings.HasSuffix(u.Pkg.Name(), "test")
	add := func(id *ast.Ident, node ast.Node, kind string) *deadDecl {
		d := &deadDecl{unit: u, node: node, pos: id.Pos(), kind: kind, name: id.Name, root: allRoots}
		pos := u.Fset.Position(id.Pos())
		d.root = d.root || annotated(annots, pos, Deadcode.Name)
		obj := u.Info.Defs[id]
		if fd, ok := node.(*ast.FuncDecl); obj == nil || id.Name == "_" || ok && id.Name == "init" && fd.Recv == nil {
			// Nothing can name these, and all run at start-up: init
			// functions, and blank vars (compile-time assertions,
			// registrations) whose initializers are evaluated then.
			d.root = true
			g.decls[pos.String()] = d
			return d
		}
		g.decls[objectKey(obj)] = d
		return d
	}
	for _, f := range u.Files {
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				d := add(decl.Name, decl, "func")
				if fn, ok := u.Info.Defs[decl.Name].(*types.Func); ok && decl.Recv != nil {
					if named := receiverNamed(fn); named != nil {
						d.kind, d.method = "method", decl.Name.Name
						d.recv = objectKey(named.Obj())
						d.name = named.Obj().Name() + "." + d.method
					}
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(spec.Name, spec, "type")
						g.creditStdInterfaces(u.Info.Defs[spec.Name])
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							d := add(id, spec, decl.Tok.String())
							c, ok := u.Info.Defs[id].(*types.Const)
							if !ok {
								continue
							}
							if named, ok := types.Unalias(c.Type()).(*types.Named); ok && named.Obj().Pkg() == u.Pkg {
								d.enumOf = objectKey(named.Obj())
							}
						}
					}
				}
			}
		}
	}
}

// addStdInterfaces records every interface type pkg exports.
func (g *deadGraph) addStdInterfaces(pkg *types.Package) {
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || !tn.Exported() {
			continue
		}
		if iface, ok := tn.Type().Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
			g.std = append(g.std, iface)
		}
	}
}

// creditStdInterfaces marks, for the type obj declares, the methods of
// every standard-library interface it (or a pointer to it) satisfies.
// Interfaces come from every unit's importer, so one that mentions a
// named type matches only from the declaring unit's own imports —
// which a type implementing it necessarily has. Generic types are
// skipped: Implements is undefined before instantiation.
func (g *deadGraph) creditStdInterfaces(obj types.Object) {
	tn, ok := obj.(*types.TypeName)
	if !ok || tn.IsAlias() {
		return
	}
	named, ok := tn.Type().(*types.Named)
	if !ok || named.NumMethods() == 0 || named.TypeParams().Len() > 0 {
		return
	}
	for _, iface := range g.std {
		if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
			for i := 0; i < iface.NumMethods(); i++ {
				g.viaStd[objectKey(tn)+"."+iface.Method(i).Name()] = true
			}
		}
	}
}

func (g *deadGraph) reach(d *deadDecl) {
	if !d.reached {
		d.reached = true
		g.queue = append(g.queue, d)
	}
}

// isReached reports whether the declaration with the given key is
// reached; a key the graph does not hold is a declaration outside the
// loaded units and counts as reached.
func (g *deadGraph) isReached(key string) bool {
	d, ok := g.decls[key]
	return !ok || d.reached
}

// scan follows every identifier use under n.
func (g *deadGraph) scan(u *Unit, n ast.Node) {
	ast.Inspect(n, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := u.Info.Uses[id]
		if obj == nil || obj.Pkg() == nil || !InModule(obj.Pkg().Path()) {
			return true
		}
		if recv := methodRecv(obj); recv != nil {
			if types.IsInterface(recv.Type()) {
				g.called[obj.Name()] = true
				return true
			}
		} else if obj.Pkg().Scope().Lookup(obj.Name()) != obj {
			return true // a field, parameter or local
		}
		if d, ok := g.decls[objectKey(obj)]; ok {
			g.reach(d)
		}
		return true
	})
}

// objectKey names a package-level object or a method of a named type
// the same way from its declaring package's source and from another
// package's import of it, so uses resolve across separately
// type-checked units.
func objectKey(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok {
		if named := receiverNamed(fn); named != nil {
			return objectKey(named.Obj()) + "." + fn.Name()
		}
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// methodRecv returns obj's receiver when obj is a method, else nil.
func methodRecv(obj types.Object) *types.Var {
	if fn, ok := obj.(*types.Func); ok {
		return fn.Origin().Type().(*types.Signature).Recv()
	}
	return nil
}

// receiverNamed returns the named type a method is declared on, nil
// for plain functions and for methods of unnamed (interface literal)
// receivers.
func receiverNamed(fn *types.Func) *types.Named {
	recv := methodRecv(fn)
	if recv == nil {
		return nil
	}
	t := types.Unalias(recv.Type())
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	named, _ := t.(*types.Named)
	return named
}
