package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ReleasePair declares one acquire/release obligation for the mustrelease
// analyzer: calling Fn hands the caller a resource (the Result-th return
// value) that must be released on every control-flow path — by calling the
// Release method on it, or, when Release is empty, by calling the value
// itself (the context.CancelFunc shape).
type ReleasePair struct {
	// Fn is the acquiring function's full name as go/types renders it:
	// "os.Open", "gendpr/internal/transport.DialTimeout".
	Fn string
	// Result is the index of the returned resource in Fn's result list.
	Result int
	// Release is the niladic method releasing the resource ("" = call the
	// value itself).
	Release string
	// Kind is the human-readable resource label used in diagnostics.
	Kind string
}

// DefaultReleasePairs is the project's lifecycle obligation table. Admission
// slots and tenant tokens are acquired and released on different goroutines
// (admit in the caller, release in the worker), which an intraprocedural
// path check cannot follow — those invariants are enforced by goroleak on
// the worker loop plus the service's mixed-load ledger test, not listed here.
func DefaultReleasePairs() []ReleasePair {
	return []ReleasePair{
		{Fn: "gendpr/internal/transport.DialTimeout", Result: 0, Release: "Close", Kind: "transport connection"},
		{Fn: "gendpr/internal/transport.Listen", Result: 0, Release: "Close", Kind: "transport listener"},
		{Fn: "os.Open", Result: 0, Release: "Close", Kind: "file handle"},
		{Fn: "os.Create", Result: 0, Release: "Close", Kind: "file handle"},
		{Fn: "os.OpenFile", Result: 0, Release: "Close", Kind: "file handle"},
		{Fn: "time.NewTimer", Result: 0, Release: "Stop", Kind: "timer"},
		{Fn: "time.NewTicker", Result: 0, Release: "Stop", Kind: "ticker"},
		{Fn: "context.WithCancel", Result: 1, Release: "", Kind: "context cancel func"},
		{Fn: "context.WithTimeout", Result: 1, Release: "", Kind: "context cancel func"},
		{Fn: "context.WithDeadline", Result: 1, Release: "", Kind: "context cancel func"},
	}
}

// NewMustRelease returns the analyzer proving release-on-every-path for the
// spec table's acquire/release pairs. The check runs on the CFG: from each
// acquire site it walks every path to function exit and demands the release
// happens on all of them — early returns and error branches included. A
// `defer` right after the acquire is the sanctioned idiom; explicit releases
// are accepted only when they cover every path (a release guarded by a
// condition that some path skips is exactly the leak this exists for).
//
// Escape is handoff: a resource that is returned, stored, captured, sent, or
// passed to another call transfers its obligation to the new owner and stops
// being tracked here. Error-branch refinement keeps the common
// `x, err := acquire(); if err != nil { return err }` clean — on the
// err != nil edge the resource is nil and owes nothing. Acquiring inside a
// loop and releasing with defer is its own finding: those defers run at
// function exit, not iteration end, so the resource count grows with the
// trip count.
func NewMustRelease(scopes []Scope, pairs []ReleasePair) *Analyzer {
	byFn := make(map[string]ReleasePair, len(pairs))
	for _, pr := range pairs {
		byFn[pr.Fn] = pr
	}
	a := &Analyzer{
		Name:   "mustrelease",
		Doc:    "a resource from an acquire/release pair must be released on every path; defer it at the acquire site",
		Scopes: scopes,
	}
	a.Run = func(p *Pass) {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				var body *ast.BlockStmt
				switch fn := n.(type) {
				case *ast.FuncDecl:
					body = fn.Body
				case *ast.FuncLit:
					body = fn.Body
				default:
					return true
				}
				if body != nil {
					checkBodyReleases(p, body, byFn)
				}
				return true
			})
		}
	}
	return a
}

// acquireSite is one tracked acquisition inside a function body.
type acquireSite struct {
	pair   ReleasePair
	obj    types.Object // the resource variable
	errObj types.Object // the error result bound at the same site, if any
	pos    token.Pos
	block  *Block
	node   int // index of the acquiring node within block.Nodes
}

// checkBodyReleases analyzes one function body's acquires. Nested function
// literals are walked by their own invocation of this check, so their nodes
// are skipped here: an acquire inside a closure belongs to the closure's
// CFG.
func checkBodyReleases(p *Pass, body *ast.BlockStmt, byFn map[string]ReleasePair) {
	if p.Pkg.Info == nil {
		return
	}
	// Cheap pre-scan: most bodies acquire nothing.
	if !bodyMentionsAcquire(p, body, byFn) {
		return
	}
	cfg := BuildCFG(body)
	var sites []acquireSite
	for _, blk := range cfg.Blocks {
		for i, n := range blk.Nodes {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Rhs) != 1 {
				continue
			}
			call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
			if !ok {
				continue
			}
			pair, ok := acquirePair(p, call, byFn)
			if !ok {
				continue
			}
			if pair.Result >= len(as.Lhs) {
				continue
			}
			id, ok := as.Lhs[pair.Result].(*ast.Ident)
			if !ok {
				continue
			}
			if id.Name == "_" {
				p.Reportf(as.Pos(), "%s from %s is discarded: the %s can never be released; bind it and release it",
					pair.Kind, pair.Fn, pair.Kind)
				continue
			}
			obj := objectOf(p.Pkg.Info, id)
			if obj == nil {
				continue
			}
			site := acquireSite{pair: pair, obj: obj, pos: as.Pos(), block: blk, node: i}
			for _, lhs := range as.Lhs {
				if lid, ok := lhs.(*ast.Ident); ok && lid != id {
					if lobj := objectOf(p.Pkg.Info, lid); lobj != nil && isErrorType(lobj.Type()) {
						site.errObj = lobj
					}
				}
			}
			sites = append(sites, site)
		}
	}
	for _, site := range sites {
		checkAcquirePaths(p, cfg, site)
	}
}

func bodyMentionsAcquire(p *Pass, body *ast.BlockStmt, byFn map[string]ReleasePair) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if _, ok := acquirePair(p, call, byFn); ok {
				found = true
			}
		}
		return true
	})
	return found
}

func acquirePair(p *Pass, call *ast.CallExpr, byFn map[string]ReleasePair) (ReleasePair, bool) {
	fn := staticCallee(p.Pkg.Info, call)
	if fn == nil {
		return ReleasePair{}, false
	}
	pair, ok := byFn[fn.FullName()]
	return pair, ok
}

// pathState is the tracked condition of one resource along one CFG path.
type pathState struct {
	deferred bool // a (non-loop) defer guarantees release at exit
}

// checkAcquirePaths walks every path from the acquire to the function exit
// and reports the first leaking one. One diagnostic per site: either the
// defer-in-loop accumulation or the missing-path leak, not both.
func checkAcquirePaths(p *Pass, cfg *CFG, site acquireSite) {
	inLoop := site.block.LoopDepth > 0
	reportedLoopDefer := false
	leaked := false

	// visited keys (block, deferred): exploration always carries held=true —
	// a released or escaped resource prunes its path.
	type visitKey struct {
		blk      int
		deferred bool
	}
	visited := make(map[visitKey]bool)

	var walk func(blk *Block, start int, st pathState)
	walk = func(blk *Block, start int, st pathState) {
		if leaked && (!inLoop || reportedLoopDefer) {
			return
		}
		if start == 0 {
			key := visitKey{blk.Index, st.deferred}
			if visited[key] {
				return
			}
			visited[key] = true
		}
		if blk == cfg.Exit {
			if !st.deferred && !leaked {
				leaked = true
				p.Reportf(site.pos, "%s from %s is not released on every path: some path reaches return without calling %s; defer it at the acquire site",
					site.pair.Kind, site.pair.Fn, releaseName(site.pair))
			}
			return
		}
		for i := start; i < len(blk.Nodes); i++ {
			n := blk.Nodes[i]
			switch disposition(p, n, site) {
			case dispReleases:
				return // path satisfied
			case dispDefers:
				if blk.LoopDepth > 0 && inLoop {
					if !reportedLoopDefer {
						reportedLoopDefer = true
						p.Reportf(n.Pos(), "defer %s inside a loop releases the %s only at function exit: iterations accumulate resources; release explicitly per iteration or hoist into a function",
							releaseName(site.pair), site.pair.Kind)
					}
					return // the defer still prevents an outright leak
				}
				st.deferred = true
			case dispEscapes:
				return // ownership handed off
			case dispTerminates:
				// os.Exit/log.Fatal: the process dies, nothing leaks.
				return
			}
		}
		for si, succ := range blk.Succs {
			if blk.Branch != nil && edgeProvesNil(p, blk.Branch, si == 0, site) {
				continue // resource is nil on this edge: nothing to release
			}
			walk(succ, 0, st)
		}
	}
	walk(site.block, site.node+1, pathState{})
}

func releaseName(pair ReleasePair) string {
	if pair.Release == "" {
		return "the cancel func"
	}
	return pair.Release
}

const (
	dispNeutral = iota
	dispReleases
	dispDefers
	dispEscapes
	dispTerminates
)

// disposition classifies one CFG node's effect on the tracked resource.
func disposition(p *Pass, n ast.Node, site acquireSite) int {
	switch s := n.(type) {
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			if isTerminatorCall(call) && !isPanicLike(call) {
				return dispTerminates
			}
		}
	case *ast.DeferStmt:
		if isReleaseCall(p, s.Call, site) {
			return dispDefers
		}
		// defer func() { ... release ... }() also guarantees the release.
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			if containsReleaseCall(p, lit.Body, site) {
				return dispDefers
			}
		}
	}
	// A release call anywhere in the node outside nested function literals
	// counts — the `if err := f.Close(); err != nil` idiom puts it in an
	// if-init, not a bare expression statement.
	if containsReleaseCall(p, n, site) {
		return dispReleases
	}
	if escapesThrough(p, n, site) {
		return dispEscapes
	}
	return dispNeutral
}

// containsReleaseCall scans a node's subtree, excluding nested function
// literals (a release inside a closure runs on the closure's schedule, not
// this path).
func containsReleaseCall(p *Pass, n ast.Node, site acquireSite) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		if _, ok := m.(*ast.FuncLit); ok && m != n {
			return false
		}
		if call, ok := m.(*ast.CallExpr); ok && isReleaseCall(p, call, site) {
			found = true
		}
		return !found
	})
	return found
}

// isPanicLike distinguishes defer-running terminators (panic, Goexit) from
// process-exit ones: only the latter excuse an unreleased resource, and even
// then just because the OS reclaims it.
func isPanicLike(call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		if pkg, ok := fun.X.(*ast.Ident); ok {
			return pkg.Name == "runtime" && fun.Sel.Name == "Goexit"
		}
	}
	return false
}

// isReleaseCall matches obj.Release() (or obj() for self-release pairs).
func isReleaseCall(p *Pass, call *ast.CallExpr, site acquireSite) bool {
	if site.pair.Release == "" {
		id, ok := ast.Unparen(call.Fun).(*ast.Ident)
		return ok && objectOf(p.Pkg.Info, id) == site.obj
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != site.pair.Release {
		return false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	return ok && objectOf(p.Pkg.Info, id) == site.obj
}

// escapesThrough reports whether the node hands the resource to another
// owner: returning it, storing it anywhere, capturing it in a function
// literal, sending it, or passing it as a call argument. Receiver-position
// method calls (f.Write, conn.Send) and nil comparisons keep local
// ownership.
func escapesThrough(p *Pass, n ast.Node, site acquireSite) bool {
	escaped := false
	ast.Inspect(n, func(m ast.Node) bool {
		if escaped {
			return false
		}
		switch m := m.(type) {
		case *ast.FuncLit:
			// A closure mentioning the resource captures it.
			if usesObject(p, m.Body, site.obj) {
				escaped = true
			}
			return false
		case *ast.ReturnStmt:
			for _, r := range m.Results {
				if exprIsObject(p, r, site.obj) || usesObject(p, r, site.obj) {
					escaped = true
				}
			}
		case *ast.AssignStmt:
			for _, r := range m.Rhs {
				if exprIsObject(p, r, site.obj) {
					escaped = true
				}
			}
		case *ast.SendStmt:
			if exprIsObject(p, m.Value, site.obj) {
				escaped = true
			}
		case *ast.CompositeLit:
			for _, e := range m.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					e = kv.Value
				}
				if exprIsObject(p, e, site.obj) {
					escaped = true
				}
			}
		case *ast.UnaryExpr:
			if m.Op == token.AND && exprIsObject(p, m.X, site.obj) {
				escaped = true
			}
		case *ast.CallExpr:
			if isReleaseCall(p, m, site) {
				return false
			}
			for _, arg := range m.Args {
				if exprIsObject(p, arg, site.obj) {
					escaped = true
				}
			}
		}
		return !escaped
	})
	return escaped
}

func exprIsObject(p *Pass, e ast.Expr, obj types.Object) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && objectOf(p.Pkg.Info, id) == obj
}

func usesObject(p *Pass, n ast.Node, obj types.Object) bool {
	used := false
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok && objectOf(p.Pkg.Info, id) == obj {
			used = true
		}
		return !used
	})
	return used
}

// edgeProvesNil reports branch edges on which the resource is provably nil
// and owes no release: the true edge of `err != nil` / `res == nil` and the
// false edge of `err == nil` / `res != nil`.
func edgeProvesNil(p *Pass, branch ast.Expr, trueEdge bool, site acquireSite) bool {
	bin, ok := ast.Unparen(branch).(*ast.BinaryExpr)
	if !ok || (bin.Op != token.EQL && bin.Op != token.NEQ) {
		return false
	}
	var other ast.Expr
	switch {
	case isNilIdent(bin.Y):
		other = bin.X
	case isNilIdent(bin.X):
		other = bin.Y
	default:
		return false
	}
	id, ok := ast.Unparen(other).(*ast.Ident)
	if !ok {
		return false
	}
	obj := objectOf(p.Pkg.Info, id)
	if obj == nil {
		return false
	}
	switch obj {
	case site.errObj:
		// err != nil on the true edge (or err == nil on the false edge)
		// means the acquire failed and returned a nil resource.
		return (bin.Op == token.NEQ) == trueEdge
	case site.obj:
		// res == nil on the true edge means nothing to release.
		return (bin.Op == token.EQL) == trueEdge
	}
	return false
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}
