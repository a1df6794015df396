package analysis

import (
	"go/ast"
	"go/types"
)

// NewGoroLeak returns the analyzer enforcing the service-liveness invariant
// on goroutine spawn sites: every `go` statement in the daemon layers must
// carry a provable termination signal, because the always-on server drains
// by waiting for its goroutines and a stranded one wedges shutdown (and, at
// the paper's availability targets, accumulates across requests until the
// leader dies of scheduler pressure). A spawn is accepted when the spawned
// body
//
//   - calls Done on a sync.WaitGroup (joinable: someone Waits for it),
//   - closes or sends on a channel captured from the spawner's scope (a
//     completion signal the spawner can consume), or
//   - loops only in ways that terminate: ranging over a channel some
//     function in the package closes, or checking ctx.Done()/ctx.Err()
//     on a path that provably exits the loop — verified on the CFG, so a
//     bare `break` inside a select (which binds to the select, not the
//     loop) is correctly rejected.
//
// Anything else — including a straight-line body whose calls may block
// forever, the shape behind real Serve-goroutine leaks — is a finding.
func NewGoroLeak(scopes []Scope) *Analyzer {
	a := &Analyzer{
		Name:   "goroleak",
		Doc:    "every spawned goroutine needs a provable termination signal: a WaitGroup.Done, a completion channel, or a cancellable loop",
		Scopes: scopes,
	}
	a.Run = func(p *Pass) {
		// Named spawn targets (`go s.worker()`) are resolved through the
		// module call graph to a body declared in this package, and close()
		// provenance for ranged channels is package-wide: the spawner and
		// closer are rarely in one file.
		closed := closedChannelObjects(p.Pkg)
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				gs, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				checkGoStmt(p, gs, closed)
				return true
			})
		}
	}
	return a
}

// closedChannelObjects collects the types.Object of every expression the
// package passes to the close builtin: variables, struct fields (the object
// is the field, so `close(s.queue)` in one method licenses `range s.queue`
// in another), and globals.
func closedChannelObjects(pkg *Package) map[types.Object]bool {
	out := make(map[types.Object]bool)
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) != 1 {
				return true
			}
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); !ok || id.Name != "close" {
				return true
			}
			if obj := objectOf(pkg.Info, call.Args[0]); obj != nil {
				out[obj] = true
			}
			return true
		})
	}
	return out
}

func checkGoStmt(p *Pass, gs *ast.GoStmt, closed map[types.Object]bool) {
	var body *ast.BlockStmt
	if lit, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
		body = lit.Body
	} else {
		// Named target: analyze the callee's body at the spawn site.
		cg := p.Mod.callGraph()
		fn, _ := cg.callee(p.Pkg, gs.Call)
		if fd := cg.funcs[fn]; fd != nil && fd.pkg == p.Pkg {
			body = fd.decl.Body
		}
	}
	if body == nil {
		p.Reportf(gs.Pos(), "goroutine body cannot be resolved for termination analysis: spawn a function declared in this package or an inline literal so drain is provable")
		return
	}
	if hasWaitGroupDone(p, body) || signalsCapturedChannel(p, body) {
		return
	}

	loops := unboundedLoops(p, body)
	if len(loops) == 0 {
		p.Reportf(gs.Pos(), "goroutine is not joinable and has no termination signal: its calls may block forever with nothing to reap it; add a WaitGroup.Done, close a completion channel, or loop on a cancellable context")
		return
	}
	cfg := BuildCFG(body)
	for _, lp := range loops {
		checkUnboundedLoop(p, cfg, lp, closed)
	}
}

// hasWaitGroupDone reports a Done() call on a sync.WaitGroup anywhere in the
// body except inside nested `go` statements (a grandchild's Done does not
// join this goroutine).
func hasWaitGroupDone(p *Pass, body *ast.BlockStmt) bool {
	found := false
	inspectBody(body, spawnsLiteral, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 0 {
			return
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Done" {
			return
		}
		if isWaitGroup(p, sel) {
			found = true
		}
	})
	return found
}

// signalsCapturedChannel reports a close() of, or send on, a channel whose
// declaration lives outside the body — a completion signal visible to the
// spawner.
func signalsCapturedChannel(p *Pass, body *ast.BlockStmt) bool {
	found := false
	inspectBody(body, spawnsLiteral, func(n ast.Node) {
		var target ast.Expr
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "close" && len(n.Args) == 1 {
				target = n.Args[0]
			}
		case *ast.SendStmt:
			target = n.Chan
		}
		if target == nil {
			return
		}
		obj := objectOf(p.Pkg.Info, target)
		if obj == nil {
			return
		}
		// Struct fields and globals are never body-local; locals are only a
		// signal when declared before the goroutine body starts.
		if obj.Pos() < body.Pos() || obj.Pos() > body.End() {
			found = true
		}
	})
	return found
}

// spawnsLiteral reports a nested `go func() {...}()`: the literal's signals
// and loops belong to its own spawn-site analysis, not the enclosing
// goroutine's.
func spawnsLiteral(n ast.Node) bool {
	gs, ok := n.(*ast.GoStmt)
	return ok && isFuncLit(ast.Unparen(gs.Call.Fun))
}

// unboundedLoop is a loop with no structural bound: `for { ... }` or a range
// over a channel.
type unboundedLoop struct {
	node     ast.Stmt
	body     *ast.BlockStmt
	rangedCh ast.Expr // non-nil for range-over-channel
}

func unboundedLoops(p *Pass, body *ast.BlockStmt) []unboundedLoop {
	var out []unboundedLoop
	inspectBody(body, spawnsLiteral, func(n ast.Node) {
		switch s := n.(type) {
		case *ast.ForStmt:
			if s.Cond == nil {
				out = append(out, unboundedLoop{node: s, body: s.Body})
			}
		case *ast.RangeStmt:
			if p.Pkg.Info == nil {
				return
			}
			if tv, ok := p.Pkg.Info.Types[s.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					out = append(out, unboundedLoop{node: s, body: s.Body, rangedCh: s.X})
				}
			}
		}
	})
	return out
}

// checkUnboundedLoop accepts a range-over-channel when the package closes
// that channel, and a `for {}` when it checks ctx cancellation on a path the
// CFG shows escaping the loop. A nested `for {}` that exits still lands in
// the enclosing loop, so the escape check asks for reachability of the
// function exit — the only destination that ends the goroutine.
func checkUnboundedLoop(p *Pass, cfg *CFG, lp unboundedLoop, closed map[types.Object]bool) {
	if lp.rangedCh != nil {
		obj := objectOf(p.Pkg.Info, lp.rangedCh)
		if obj != nil && closed[obj] {
			return
		}
		p.Reportf(lp.node.Pos(), "goroutine ranges over a channel no function in this package closes: the loop can never terminate and drain will strand the goroutine")
		return
	}
	ctxNodes := contextCancellationChecks(p, lp.body)
	if len(ctxNodes) == 0 {
		p.Reportf(lp.node.Pos(), "unbounded loop in goroutine has no termination signal: check ctx.Done() or ctx.Err() in the loop (or range over a channel the spawner closes)")
		return
	}
	for _, cn := range ctxNodes {
		blk := blockOfNode(cfg, cn)
		if blk != nil && cfg.Reachable(blk, cfg.Exit) {
			return
		}
	}
	p.Reportf(lp.node.Pos(), "the ctx cancellation check cannot exit the loop (a bare break in a select binds to the select, not the loop): use a labeled break or return")
}

// contextCancellationChecks finds calls to Done() or Err() on a
// context.Context inside the loop body.
func contextCancellationChecks(p *Pass, body *ast.BlockStmt) []ast.Node {
	var out []ast.Node
	inspectBody(body, spawnsLiteral, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) != 0 {
			return
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Done" && sel.Sel.Name != "Err") {
			return
		}
		if t := receiverType(p.Pkg.Info, sel); t != nil && isContextInterface(t) {
			out = append(out, call)
		}
	})
	return out
}

// blockOfNode locates the CFG block whose Nodes contain (a subtree holding)
// the given node.
func blockOfNode(cfg *CFG, target ast.Node) *Block {
	for _, blk := range cfg.Blocks {
		for _, n := range blk.Nodes {
			found := false
			ast.Inspect(n, func(m ast.Node) bool {
				if m == target {
					found = true
				}
				return !found
			})
			if found {
				return blk
			}
		}
	}
	return nil
}

// isContextInterface matches context.Context (or a named interface
// embedding it, resolved structurally by method presence).
func isContextInterface(t types.Type) bool {
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context" {
			return true
		}
	}
	iface, ok := t.Underlying().(*types.Interface)
	if !ok {
		return false
	}
	var hasDone, hasErr bool
	for i := 0; i < iface.NumMethods(); i++ {
		switch iface.Method(i).Name() {
		case "Done":
			hasDone = true
		case "Err":
			hasErr = true
		}
	}
	return hasDone && hasErr
}
