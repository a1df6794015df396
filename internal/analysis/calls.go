package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// call handles every call expression: type conversions, builtins, function
// literals, declassifiers, sources, sinks, module summaries, and — for
// everything else — conservative propagation of argument taint into the
// result.
func (fa *funcAnalysis) call(call *ast.CallExpr) taintVal {
	info := fa.info()

	// Type conversion T(x): taint passes through unchanged.
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		var t taintVal
		for _, a := range call.Args {
			t = t.union(fa.eval(a))
		}
		return t
	}

	fun := ast.Unparen(call.Fun)

	// Builtins, including the host-visible print/println/panic sinks.
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			return fa.builtin(b.Name(), call)
		}
	}

	// Immediately invoked function literal.
	if lit, ok := fun.(*ast.FuncLit); ok {
		fa.litReturns[lit] = collectReturns(lit)
		return fa.litCallResult(lit, call.Args)
	}

	// Call through a local binding of a function literal (closure).
	if id, ok := fun.(*ast.Ident); ok {
		if obj := objectOf(fa.info(), id); obj != nil {
			if lit, ok := fa.lits[obj]; ok {
				return fa.litCallResult(lit, call.Args)
			}
		}
	}

	fn, impls := fa.eng.cg.callee(fa.fd.pkg, call)
	argExprs := receiverAndArgs(fa.fd.pkg, call)
	if fn == nil {
		// Function value or otherwise unresolvable callee: propagate.
		var t taintVal
		for _, a := range argExprs {
			t = t.union(fa.eval(a))
		}
		return t
	}
	key := fa.eng.cg.name(fn)

	// Order-sensitive statistic sinks are checked before sources and
	// declassifiers: most of them (lrtest.NewLogRatios, stats.MAF, the
	// selection entry points) are ALSO aggregate sources or release
	// boundaries, which would otherwise swallow the unordered bit first.
	if desc, ok := fa.eng.spec.OrderSinks[key]; ok {
		for _, a := range argExprs {
			t := fa.eval(a)
			if fa.allowed("divergentfloat", a.Pos(), call.Pos()) {
				continue
			}
			if t.raw&ClassUnordered != 0 {
				fa.reportf("divergentfloat", a.Pos(),
					"order-nondeterministic value (map iteration, select race or goroutine fan-in) reaches %s; sort or merge by index first so every member computes bit-identical statistics", desc)
			}
			fa.noteOrd(t.params, desc)
		}
	}

	// Ordering barriers re-establish a canonical order: an in-place sort
	// scrubs the unordered bit from its argument, and any barrier's result
	// is order-deterministic by declaration. The scrub wraps the normal call
	// handling below, so a barrier that is also a source, sink or module
	// function keeps its other semantics.
	if fa.eng.orderBarrier(fn, key) {
		res := fa.callResolved(call, fn, impls, key, argExprs)
		if inPlaceSorts[key] && len(argExprs) > 0 {
			fa.clearUnordered(argExprs[0])
		}
		res.raw &^= ClassUnordered
		return res
	}
	return fa.callResolved(call, fn, impls, key, argExprs)
}

// callResolved handles a call whose callee resolved to fn: declassifiers,
// sources, sinks, format functions, and module summaries.
func (fa *funcAnalysis) callResolved(call *ast.CallExpr, fn *types.Func, impls []*types.Func, key string, argExprs []ast.Expr) taintVal {
	// Declassifiers override everything: sealing demotes raw taint to
	// sealed, release/aggregation boundaries drop it, unsealing restores it.
	if mode, ok := fa.eng.declassifierFor(fn, key); ok {
		var t taintVal
		for _, a := range argExprs {
			t = t.union(fa.eval(a))
		}
		switch mode {
		case DeclassSeal:
			return t.sealTV()
		case DeclassUnseal:
			return taintVal{raw: t.raw | t.sealed, params: t.params | t.sealedParams}
		default: // DeclassRelease
			return taintVal{}
		}
	}

	// Sources and aggregators: the result class is declared, regardless of
	// argument taint (AlleleCounts reads a per-individual matrix but yields
	// an aggregate vector).
	if cls, ok := fa.eng.sourceFor(fn, key); ok {
		for _, a := range argExprs {
			fa.eval(a)
		}
		return taintVal{raw: cls}
	}

	if sk, ok := fa.eng.spec.Sinks[key]; ok {
		if t, handled := fa.sinkCall(call, sk, argExprs); handled {
			return t
		}
	}

	if fa.eng.spec.FormatFuncs[key] {
		// String formatters propagate taint into their result and are
		// logleak sites for secret-typed arguments.
		var t taintVal
		for _, a := range argExprs {
			t = t.union(fa.eval(a))
			fa.checkTypeLeak("logleak", a, key)
		}
		return t
	}

	// Module function or interface with in-module implementations: apply
	// the (current) summaries.
	sums := fa.eng.summariesFor(fn, impls)
	if len(sums) == 0 {
		var t taintVal
		for _, a := range argExprs {
			t = t.union(fa.eval(a))
		}
		return t
	}
	args := fa.argTaints(argExprs)
	var out taintVal
	for _, ns := range sums {
		out = out.union(fa.applySummary(ns, call, argExprs, args))
	}
	return out
}

// applySummary instantiates a callee summary at this call site: results,
// transitive sink/checkpoint reachability, and field writes.
func (fa *funcAnalysis) applySummary(ns *namedSummary, call *ast.CallExpr, argExprs []ast.Expr, args []taintVal) taintVal {
	s := ns.sum
	var out taintVal
	for _, r := range s.results {
		out = out.union(instantiate(r, args, s.nparams))
	}
	for i := 0; i < s.nparams && i < 64; i++ {
		bit := uint64(1) << i
		if s.obvParams&bit != 0 && !fa.obvBarrier {
			pos := fa.argPos(call, argExprs, s.nparams, i)
			if !fa.allowed("obliviousflow", pos, call.Pos()) {
				t := paramTaint(args, s.nparams, i)
				via := s.obvVia[i]
				if fa.obvScope && t.raw&ClassIndividual != 0 {
					fa.reportf("obliviousflow", pos,
						"per-individual data %s via %s; oblivious code must not hand secrets to data-dependent callees", via, shortFuncName(ns.name))
				}
				fa.noteObv(t.params, via+" via "+shortFuncName(ns.name))
			}
		}
		if s.ordParams&bit != 0 {
			pos := fa.argPos(call, argExprs, s.nparams, i)
			if !fa.allowed("divergentfloat", pos, call.Pos()) {
				t := paramTaint(args, s.nparams, i)
				via := s.ordVia[i]
				if t.raw&ClassUnordered != 0 {
					fa.reportf("divergentfloat", pos,
						"order-nondeterministic value reaches %s via %s; sort or merge by index first so every member computes bit-identical statistics", via, shortFuncName(ns.name))
				}
				fa.noteOrd(t.params, via+" via "+shortFuncName(ns.name))
			}
		}
		if s.sinkParams&bit != 0 {
			pos := fa.argPos(call, argExprs, s.nparams, i)
			if fa.allowed("secretflow", pos, call.Pos()) {
				continue
			}
			t := paramTaint(args, s.nparams, i)
			via := s.sinkVia[i]
			if t.raw&classSecret != 0 {
				fa.reportf("secretflow", pos,
					"%s secret data reaches %s via %s", t.raw&classSecret, via, shortFuncName(ns.name))
			}
			fa.noteSink(t.params, via+" via "+shortFuncName(ns.name))
		}
		if s.ckptParams&bit != 0 {
			pos := fa.argPos(call, argExprs, s.nparams, i)
			if fa.allowed("checkpointplain", pos, call.Pos()) {
				continue
			}
			t := paramTaint(args, s.nparams, i)
			via := s.ckptVia[i]
			if (t.raw|t.sealed)&ClassIndividual != 0 {
				fa.reportf("checkpointplain", pos,
					"per-individual data reaches %s via %s; checkpoints must hold post-aggregation data only", via, shortFuncName(ns.name))
			}
			fa.noteCkpt(t.params|t.sealedParams, via+" via "+shortFuncName(ns.name))
		}
	}
	for f, v := range s.fieldWrites {
		fa.eng.writeField(f, instantiate(v, args, s.nparams), fa)
	}
	return out
}

// sinkCall processes a call whose callee is in the sink table. It returns
// handled=false when sink detection is switched off for the calling package,
// in which case the caller falls back to normal propagation.
func (fa *funcAnalysis) sinkCall(call *ast.CallExpr, sk SinkSpec, argExprs []ast.Expr) (taintVal, bool) {
	pkgPath := fa.fd.pkg.Path
	if sk.Checkpoint {
		if fa.eng.noCkptSink[pkgPath] {
			return taintVal{}, false
		}
	} else if fa.eng.noEgressSink[pkgPath] {
		return taintVal{}, false
	}

	// Secure-channel exemption: a send whose connection argument is
	// statically the AEAD channel type is proof the payload leaves sealed.
	if !sk.Checkpoint && sk.ConnArg >= 0 && sk.ConnArg < len(argExprs) {
		if tv, ok := fa.info().Types[argExprs[sk.ConnArg]]; ok && tv.Type != nil &&
			types.TypeString(tv.Type, nil) == fa.eng.spec.ExemptConnType {
			for _, a := range argExprs {
				fa.eval(a)
			}
			return taintVal{}, true
		}
	}

	for i, a := range argExprs {
		if i < sk.ArgStart || i == sk.ConnArg {
			fa.eval(a)
			continue
		}
		t := fa.eval(a)
		if sk.Checkpoint {
			if fa.allowed("checkpointplain", a.Pos(), call.Pos()) {
				continue
			}
			if (t.raw|t.sealed)&ClassIndividual != 0 {
				fa.reportf("checkpointplain", a.Pos(),
					"per-individual data persisted through %s; sealing does not help — checkpoints outlive the enclave", sk.Kind)
			} else {
				fa.checkTypeLeak("checkpointplain", a, sk.Kind)
			}
			fa.noteCkpt(t.params|t.sealedParams, sk.Kind)
			continue
		}
		if fa.allowed("secretflow", a.Pos(), call.Pos()) {
			continue
		}
		if t.raw&classSecret != 0 {
			fa.reportf("secretflow", a.Pos(), "%s secret data reaches %s in plaintext", t.raw&classSecret, sk.Kind)
		} else if sk.LogLeak {
			fa.checkTypeLeak("logleak", a, sk.Kind)
		} else {
			fa.checkTypeLeak("secretflow", a, sk.Kind)
		}
		fa.noteSink(t.params, sk.Kind)
	}
	return taintVal{}, true
}

// checkTypeLeak reports when an expression's static type can hold secret
// data, independently of value flow: passing a *genome.Matrix (or a struct
// containing one) to a formatter leaks genotypes via %v even if this
// particular value never saw a tracked source.
func (fa *funcAnalysis) checkTypeLeak(analyzer string, e ast.Expr, where string) {
	tv, ok := fa.info().Types[e]
	if !ok || tv.Type == nil {
		return
	}
	cls := fa.eng.typeSecretClass(tv.Type)
	if analyzer == "checkpointplain" {
		cls &= ClassIndividual
	}
	if cls == 0 {
		return
	}
	fa.reportf(analyzer, e.Pos(), "value of type %s can carry %s secret data and reaches %s",
		types.TypeString(tv.Type, relativeTo(fa.fd.pkg)), cls, where)
}

func relativeTo(pkg *Package) types.Qualifier {
	if pkg.Types == nil {
		return nil
	}
	return types.RelativeTo(pkg.Types)
}

// noteSink records that parameters of the function under analysis reach a
// plaintext-egress sink (transitively), with a description for call sites.
func (fa *funcAnalysis) noteSink(params uint64, via string) {
	if params == 0 {
		return
	}
	if fa.sum.sinkParams|params != fa.sum.sinkParams {
		fa.sum.sinkParams |= params
		fa.changed = true
	}
	if fa.sum.sinkVia == nil {
		fa.sum.sinkVia = make(map[int]string)
	}
	for i := 0; i < 64; i++ {
		if params&(1<<i) != 0 {
			if _, ok := fa.sum.sinkVia[i]; !ok {
				fa.sum.sinkVia[i] = via
			}
		}
	}
}

// noteObv records that parameters of the function under analysis steer
// control flow or memory addressing somewhere beneath it. Barrier functions
// never record: their body is the sanctioned primitive.
func (fa *funcAnalysis) noteObv(params uint64, via string) {
	if params == 0 || fa.obvBarrier {
		return
	}
	if fa.sum.obvParams|params != fa.sum.obvParams {
		fa.sum.obvParams |= params
		fa.changed = true
	}
	if fa.sum.obvVia == nil {
		fa.sum.obvVia = make(map[int]string)
	}
	for i := 0; i < 64; i++ {
		if params&(1<<i) != 0 {
			if _, ok := fa.sum.obvVia[i]; !ok {
				fa.sum.obvVia[i] = via
			}
		}
	}
}

// noteOrd records that parameters reach an order-sensitive statistic sink.
func (fa *funcAnalysis) noteOrd(params uint64, via string) {
	if params == 0 {
		return
	}
	if fa.sum.ordParams|params != fa.sum.ordParams {
		fa.sum.ordParams |= params
		fa.changed = true
	}
	if fa.sum.ordVia == nil {
		fa.sum.ordVia = make(map[int]string)
	}
	for i := 0; i < 64; i++ {
		if params&(1<<i) != 0 {
			if _, ok := fa.sum.ordVia[i]; !ok {
				fa.sum.ordVia[i] = via
			}
		}
	}
}

// inPlaceSorts lists the ordering barriers that sort their first argument in
// place: the canonical collect-keys/sort/indexed-read idiom mutates the
// slice, so the barrier must scrub the unordered bit from the argument
// itself, not only from the (empty) result.
var inPlaceSorts = map[string]bool{
	"sort.Float64s":         true,
	"sort.Ints":             true,
	"sort.Strings":          true,
	"sort.Slice":            true,
	"sort.SliceStable":      true,
	"sort.Sort":             true,
	"sort.Stable":           true,
	"slices.Sort":           true,
	"slices.SortFunc":       true,
	"slices.SortStableFunc": true,
}

// clearUnordered strong-updates the root object behind an in-place sort
// argument, dropping the unordered class. The walk is AST-ordered, so the
// final state of a collect-sort-read sequence is deterministic; summaries
// stay union-monotone because parameter bits are untouched.
func (fa *funcAnalysis) clearUnordered(arg ast.Expr) {
	switch x := ast.Unparen(arg).(type) {
	case *ast.Ident:
		obj := objectOf(fa.info(), x)
		if obj == nil {
			return
		}
		t := fa.obj[obj]
		if t.raw&ClassUnordered != 0 {
			t.raw &^= ClassUnordered
			fa.obj[obj] = t
		}
	case *ast.CallExpr:
		// sort.Sort(sort.Float64Slice(keys)): unwrap the conversion.
		if tv, ok := fa.info().Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
			fa.clearUnordered(x.Args[0])
		}
	}
}

func (fa *funcAnalysis) noteCkpt(params uint64, via string) {
	if params == 0 {
		return
	}
	if fa.sum.ckptParams|params != fa.sum.ckptParams {
		fa.sum.ckptParams |= params
		fa.changed = true
	}
	if fa.sum.ckptVia == nil {
		fa.sum.ckptVia = make(map[int]string)
	}
	for i := 0; i < 64; i++ {
		if params&(1<<i) != 0 {
			if _, ok := fa.sum.ckptVia[i]; !ok {
				fa.sum.ckptVia[i] = via
			}
		}
	}
}

// argPos finds the call-site position of the argument feeding callee
// parameter i, falling back to the call position.
func (fa *funcAnalysis) argPos(call *ast.CallExpr, argExprs []ast.Expr, nparams, i int) token.Pos {
	for j, a := range argExprs {
		idx := j
		if idx >= nparams {
			idx = nparams - 1
		}
		if idx == i {
			return a.Pos()
		}
	}
	return call.Pos()
}

// builtin models the language builtins that move or expose taint.
func (fa *funcAnalysis) builtin(name string, call *ast.CallExpr) taintVal {
	switch name {
	case "append":
		var t taintVal
		for _, a := range call.Args {
			t = t.union(fa.eval(a))
		}
		return t
	case "copy":
		if len(call.Args) == 2 {
			src := fa.eval(call.Args[1])
			fa.assignLHS(call.Args[0], src)
		}
		return taintVal{}
	case "print", "println":
		for _, a := range call.Args {
			t := fa.eval(a)
			if fa.allowed("secretflow", a.Pos(), call.Pos()) {
				continue
			}
			if t.raw&classSecret != 0 {
				fa.reportf("secretflow", a.Pos(), "%s secret data reaches built-in %s (host-visible output)", t.raw&classSecret, name)
			} else {
				fa.checkTypeLeak("logleak", a, "built-in "+name)
			}
			fa.noteSink(t.params, "built-in "+name)
		}
		return taintVal{}
	case "panic":
		for _, a := range call.Args {
			t := fa.eval(a)
			// Whether a panic fires at all is control flow: secret-decided
			// aborts are visible to the host adversary.
			fa.checkObliviousTaint(a, t, "feeds a panic")
			if fa.allowed("secretflow", a.Pos(), call.Pos()) {
				continue
			}
			if t.raw&classSecret != 0 {
				fa.reportf("secretflow", a.Pos(), "%s secret data reaches a panic message (host-visible)", t.raw&classSecret)
			} else {
				fa.checkTypeLeak("logleak", a, "a panic message")
			}
			fa.noteSink(t.params, "a panic message")
		}
		return taintVal{}
	case "make":
		// The size arguments become observable allocation behavior.
		for i, a := range call.Args {
			t := fa.eval(a)
			if i > 0 {
				fa.checkObliviousTaint(a, t, "sizes an allocation")
			}
		}
		return taintVal{}
	case "delete":
		// Deleting by key is a map access at a data-dependent address.
		for i, a := range call.Args {
			t := fa.eval(a)
			if i == 1 {
				fa.checkObliviousTaint(a, t, "indexes memory")
			}
		}
		return taintVal{}
	case "len", "cap", "new", "clear", "close":
		for _, a := range call.Args {
			fa.eval(a)
		}
		return taintVal{}
	default: // min, max, complex, real, imag, ...
		var t taintVal
		for _, a := range call.Args {
			t = t.union(fa.eval(a))
		}
		return t
	}
}

// shortFuncName trims the package path from a table key for messages:
// "(*gendpr/internal/core.assessment).validateCounts" -> "(*core.assessment).validateCounts".
func shortFuncName(full string) string {
	out := make([]byte, 0, len(full))
	seg := 0
	for i := 0; i < len(full); i++ {
		switch full[i] {
		case '/':
			out = out[:seg]
		case '(', '*', ' ':
			out = append(out, full[i])
			seg = len(out)
		default:
			out = append(out, full[i])
		}
	}
	return string(out)
}
