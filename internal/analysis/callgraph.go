package analysis

import (
	"go/ast"
	"go/types"
	"sort"
	"sync"
)

// callGraph is the module-wide call-resolution index the taint engine, the
// held-lock walk and goroleak run on: every function body in the module,
// keyed by its types.Func, plus the interface-dispatch relation resolved
// against the module's own types. It is deliberately a *may*-call graph —
// an interface method call resolves to every in-module implementation —
// because the taint engine must not miss a flow the runtime could take.
type callGraph struct {
	// funcs maps every module function and method with a body to its
	// declaration and defining package.
	funcs map[*types.Func]*funcDecl

	// impls maps an in-module interface method to the concrete in-module
	// methods that can stand behind it at a dynamic dispatch site.
	impls map[*types.Func][]*types.Func

	// fullName caches types.Func.FullName, the key used by the taint
	// tables ("fmt.Errorf", "(*gendpr/internal/genome.Matrix).AlleleCounts",
	// "(gendpr/internal/transport.Conn).Send"). It is the graph's only
	// mutable state once built; nameMu guards it for the engines sharing
	// the graph.
	nameMu   sync.Mutex
	fullName map[*types.Func]string
}

// funcDecl is one analyzable function body.
type funcDecl struct {
	fn   *types.Func
	decl *ast.FuncDecl
	pkg  *Package
}

// buildCallGraph indexes the module. Module.callGraph builds it once per
// module and shares it.
func buildCallGraph(mod *Module) *callGraph {
	cg := &callGraph{
		funcs:    make(map[*types.Func]*funcDecl),
		impls:    make(map[*types.Func][]*types.Func),
		fullName: make(map[*types.Func]string),
	}
	for _, pkg := range mod.Packages {
		if pkg.Info == nil {
			continue
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				cg.funcs[obj] = &funcDecl{fn: obj, decl: fd, pkg: pkg}
			}
		}
	}
	cg.buildDispatch(mod)
	return cg
}

// buildDispatch resolves interface dispatch within the module: for every
// named interface type declared in the module and every named type with
// methods, record which concrete methods satisfy each interface method.
func (cg *callGraph) buildDispatch(mod *Module) {
	var ifaces []*types.Named
	var concrete []*types.Named
	for _, pkg := range mod.Packages {
		if pkg.Types == nil {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if types.IsInterface(named) {
				ifaces = append(ifaces, named)
			} else if named.NumMethods() > 0 {
				concrete = append(concrete, named)
			}
		}
	}
	for _, in := range ifaces {
		iface, ok := in.Underlying().(*types.Interface)
		if !ok || iface.NumMethods() == 0 {
			continue
		}
		for _, cn := range concrete {
			// A pointer receiver's method set is the superset; checking *T
			// covers both value and pointer dispatch for taint purposes.
			ptr := types.NewPointer(cn)
			if !types.Implements(ptr, iface) && !types.Implements(cn, iface) {
				continue
			}
			for i := 0; i < iface.NumMethods(); i++ {
				im := iface.Method(i)
				obj, _, _ := types.LookupFieldOrMethod(ptr, true, cn.Obj().Pkg(), im.Name())
				if m, ok := obj.(*types.Func); ok {
					cg.impls[im] = append(cg.impls[im], m)
				}
			}
		}
	}
	// Deterministic order so diagnostics are stable across runs.
	for im := range cg.impls {
		ms := cg.impls[im]
		sort.Slice(ms, func(i, j int) bool { return cg.name(ms[i]) < cg.name(ms[j]) })
		cg.impls[im] = ms
	}
}

// name returns (and caches) the table key for fn.
func (cg *callGraph) name(fn *types.Func) string {
	cg.nameMu.Lock()
	defer cg.nameMu.Unlock()
	if n, ok := cg.fullName[fn]; ok {
		return n
	}
	n := fn.FullName()
	cg.fullName[fn] = n
	return n
}

// callee resolves the callee of a call expression using the package's type
// information. It returns the static callee (nil for calls through function
// values and type conversions) and, when the callee is an interface method,
// the in-module implementations behind it.
func (cg *callGraph) callee(pkg *Package, call *ast.CallExpr) (fn *types.Func, impls []*types.Func) {
	fn = staticCallee(pkg.Info, call)
	if fn != nil && isInterfaceMethod(fn) {
		return fn, cg.impls[fn]
	}
	return fn, nil
}

// staticCallee resolves the function or method a call names: nil for calls
// through function values, builtins and type conversions, or without type
// information.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	if info == nil {
		return nil
	}
	var fn *types.Func
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ = info.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() == types.MethodVal || sel.Kind() == types.MethodExpr {
				fn, _ = sel.Obj().(*types.Func)
			}
		} else {
			// Qualified reference: pkg.Func.
			fn, _ = info.Uses[fun.Sel].(*types.Func)
		}
	}
	return fn
}

// objectOf resolves an identifier (defined or used) or a field or method
// selector to the object it denotes; nil when type information has none.
func objectOf(info *types.Info, e ast.Expr) types.Object {
	if info == nil {
		return nil
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := info.Defs[e]; obj != nil {
			return obj
		}
		return info.Uses[e]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[e]; ok {
			return sel.Obj()
		}
		return info.Uses[e.Sel]
	}
	return nil
}

// receiverType returns the type of a selector's receiver, nil without type
// information for it.
func receiverType(info *types.Info, sel *ast.SelectorExpr) types.Type {
	if info == nil {
		return nil
	}
	if s, ok := info.Selections[sel]; ok {
		return s.Recv()
	}
	if tv, ok := info.Types[sel.X]; ok {
		return tv.Type
	}
	return nil
}

// inspectBody calls visit on every node under root in depth-first order and
// does not descend below a node for which skip reports true.
func inspectBody(root ast.Node, skip func(ast.Node) bool, visit func(ast.Node)) {
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		visit(n)
		return !skip(n)
	})
}

// isInterfaceMethod reports whether fn is declared on an interface type.
func isInterfaceMethod(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}

// receiverAndArgs returns the expressions whose taint feeds the callee's
// parameter list, receiver first when the call is a method call through a
// selector. For a method *expression* call (T.M(recv, args...)) the receiver
// is already the first argument.
func receiverAndArgs(pkg *Package, call *ast.CallExpr) []ast.Expr {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if s, ok := pkg.Info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			out := make([]ast.Expr, 0, len(call.Args)+1)
			out = append(out, sel.X)
			return append(out, call.Args...)
		}
	}
	return call.Args
}
