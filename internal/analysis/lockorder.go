package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"sync"
)

// NewLockOrder returns the analyzer building the module-wide
// lock-acquisition-order graph and reporting cycles as potential deadlocks.
// An edge A→B is recorded whenever lock B is acquired while A is held —
// directly in one function (held-set dataflow on the CFG) or through a call
// (the PR-5 call graph supplies, for every callee, the transitive closure of
// locks it may acquire, with interface calls resolved to every in-module
// implementation). Two goroutines taking the same pair of locks in opposite
// orders is the one deadlock no timeout rescues: each holds what the other
// needs. Any strongly connected component in the order graph — including a
// self-edge, since sync.Mutex is not reentrant — is reported at every
// acquisition site participating in it.
//
// Lock identity is class-level: a mutex struct field stands for that field
// across all instances, a type embedding a mutex stands for every value of
// the type, and a plain var for itself. Class identity can merge two
// instances (hand-over-hand locking over siblings reports a cycle a runtime
// instance order would avoid) — the module has no such pattern, and a real
// one would deserve an explicit documented order anyway.
//
// One dispatch refinement keeps the decorator pattern quiet: along any one
// call path, an interface dispatch never resolves to a receiver type already
// active on that path. A type delegating to an interface field of its own
// kind (SecureConn, Fault and meteredConn wrapping transport.Conn;
// ByzantineProvider and the benchmark's timedProvider wrapping core.Provider)
// would have to be nested inside itself — possibly through a chain of other
// decorators — for that resolution to be real, and class-level identity
// would then report every lock it holds as a self-deadlock. (core's member
// cache, cachedProvider, is not a Provider, so the type system already rules
// out nesting it.) The may-acquire
// walk therefore carries the set of receiver types on the path and skips
// interface edges that would re-enter one; static calls are never skipped.
func NewLockOrder(scopes []Scope) *Analyzer {
	var mu sync.Mutex
	cache := make(map[*Module]*lockOrderEngine)
	a := &Analyzer{
		Name:   "lockorder",
		Doc:    "lock acquisition order must be acyclic across the module; a cycle is a potential deadlock",
		Scopes: scopes,
	}
	a.Run = func(p *Pass) {
		mu.Lock()
		eng := cache[p.Mod]
		if eng == nil {
			eng = buildLockOrderEngine(p.Mod)
			cache[p.Mod] = eng
		}
		mu.Unlock()
		for _, f := range eng.findings[p.Pkg.Path] {
			p.Reportf(f.pos, "%s", f.msg)
		}
	}
	return a
}

type lockFinding struct {
	pos token.Pos
	msg string
}

// lockEdge is one "acquired while held" observation.
type lockEdge struct {
	from, to types.Object
	pos      token.Pos
	pkgPath  string
	via      *types.Func // non-nil when the acquisition happens inside a callee
}

type lockOrderEngine struct {
	findings map[string][]lockFinding
}

func buildLockOrderEngine(mod *Module) *lockOrderEngine {
	eng := &lockOrderEngine{findings: make(map[string][]lockFinding)}
	cg := buildCallGraph(mod)

	// Deterministic function order: the maps inside callGraph iterate
	// randomly, and edge discovery order decides which duplicate wins.
	fns := make([]*types.Func, 0, len(cg.funcs))
	for fn := range cg.funcs {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return cg.name(fns[i]) < cg.name(fns[j]) })

	// Phase 1: per-function direct acquisitions and callee edges (tagged with
	// how the call dispatches, for the decorator refinement).
	direct := make(map[*types.Func][]types.Object)
	callees := make(map[*types.Func][]calleeEdge)
	for _, fn := range fns {
		fd := cg.funcs[fn]
		scanFuncLocks(fd, cg, direct, callees)
	}

	// Phase 2: held-set dataflow over each function's CFG.
	var edges []lockEdge
	seen := make(map[string]bool)
	for _, fn := range fns {
		fd := cg.funcs[fn]
		for _, e := range functionLockEdges(fd, cg, direct, callees) {
			key := fmt.Sprintf("%p|%p|%d", e.from, e.to, e.pos)
			if !seen[key] {
				seen[key] = true
				edges = append(edges, e)
			}
		}
	}

	// Phase 3: cycles. Every edge inside a strongly connected component of
	// size > 1, and every self-edge, is a finding at its site.
	inCycle := cyclicNodes(edges)
	label := func(obj types.Object) string {
		return fmt.Sprintf("%s (%s)", obj.Name(), mod.Fset.Position(obj.Pos()))
	}
	for _, e := range edges {
		var msg string
		switch {
		case e.from == e.to:
			msg = fmt.Sprintf("lock %s is acquired while a lock of the same identity is already held: sync mutexes are not reentrant — self-deadlock, or two instances needing an explicit documented order", label(e.from))
		case inCycle[e.from] && inCycle[e.to]:
			if e.via != nil {
				msg = fmt.Sprintf("call may acquire %s (via %s) while %s is held: the acquisition order cycles elsewhere in the module — potential deadlock; establish one module-wide order", label(e.to), e.via.Name(), label(e.from))
			} else {
				msg = fmt.Sprintf("acquiring %s while %s is held creates a lock-order cycle: another path takes them in the opposite order — potential deadlock; establish one module-wide order", label(e.to), label(e.from))
			}
		default:
			continue
		}
		eng.findings[e.pkgPath] = append(eng.findings[e.pkgPath], lockFinding{pos: e.pos, msg: msg})
	}
	return eng
}

// lockOp is one ordered event inside a function body.
type lockOp struct {
	kind    int // opLock, opUnlock, opCall
	obj     types.Object
	pos     token.Pos
	callees []*types.Func
}

const (
	opLock = iota
	opUnlock
	opCall
)

// calleeEdge is one call-graph edge with its dispatch mode: viaIface marks a
// resolution through interface may-dispatch, which the decorator refinement
// is allowed to prune; static edges are always followed.
type calleeEdge struct {
	g        *types.Func
	viaIface bool
}

// scanFuncLocks fills the function's direct-acquire set and callee list.
// Function literals are skipped throughout the analyzer: they run on their
// own goroutine's schedule (or are invoked through a value the call graph
// cannot resolve), so attributing their locks to the enclosing held set
// would fabricate edges.
func scanFuncLocks(fd *funcDecl, cg *callGraph, direct map[*types.Func][]types.Object, callees map[*types.Func][]calleeEdge) {
	seenAcq := make(map[types.Object]bool)
	seenCallee := make(map[*types.Func]bool)
	inspectSkippingFuncLits(fd.decl.Body, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		if obj, kind := mutexOp(fd.pkg, call); obj != nil {
			if kind == opLock && !seenAcq[obj] {
				seenAcq[obj] = true
				direct[fd.fn] = append(direct[fd.fn], obj)
			}
			return
		}
		static, impls := cg.callee(fd.pkg, call)
		if static != nil && cg.funcs[static] != nil && !seenCallee[static] {
			seenCallee[static] = true
			callees[fd.fn] = append(callees[fd.fn], calleeEdge{g: static})
		}
		for _, g := range impls {
			if g == nil || cg.funcs[g] == nil || seenCallee[g] {
				continue
			}
			seenCallee[g] = true
			callees[fd.fn] = append(callees[fd.fn], calleeEdge{g: g, viaIface: true})
		}
	})
}

func inspectSkippingFuncLits(body *ast.BlockStmt, visit func(ast.Node)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		visit(n)
		return true
	})
}

// mutexOp classifies a call as Lock/RLock or Unlock/RUnlock on a mutex and
// returns the lock's class-level identity object.
func mutexOp(pkg *Package, call *ast.CallExpr) (types.Object, int) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || len(call.Args) != 0 {
		return nil, 0
	}
	var kind int
	switch {
	case lockMethods[sel.Sel.Name]:
		kind = opLock
	case unlockMethods[sel.Sel.Name]:
		kind = opUnlock
	default:
		return nil, 0
	}
	if pkg.Info == nil {
		return nil, 0
	}
	// The receiver must actually be a sync mutex (or embed one).
	var recv types.Type
	if s, ok := pkg.Info.Selections[sel]; ok {
		recv = s.Recv()
	} else if tv, ok := pkg.Info.Types[sel.X]; ok {
		recv = tv.Type
	}
	if recv == nil || !isSyncMutex(recv) {
		return nil, 0
	}
	return lockIdentity(pkg, sel.X, recv), kind
}

// lockIdentity maps a mutex receiver expression to its class-level object:
// a struct field (`s.mu` → the mu field, shared by all instances), the named
// type for embedded promotion (`s.Lock()` → the type of s), or the variable
// itself for plain vars.
func lockIdentity(pkg *Package, recvExpr ast.Expr, recvType types.Type) types.Object {
	switch e := ast.Unparen(recvExpr).(type) {
	case *ast.SelectorExpr:
		if s, ok := pkg.Info.Selections[e]; ok {
			return s.Obj()
		}
		return pkg.Info.Uses[e.Sel]
	case *ast.Ident:
		obj := pkg.Info.Uses[e]
		if obj == nil {
			obj = pkg.Info.Defs[e]
		}
		if obj == nil {
			return nil
		}
		// A method promoted from an embedded mutex: identify by the named
		// receiver type, so every method of the type shares the lock class.
		t := recvType
		if ptr, ok := t.Underlying().(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			if named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
				return named.Obj()
			}
		}
		return obj
	}
	return nil
}

// collectAcquires accumulates into out every lock fn may acquire directly or
// through in-module calls, walking the call graph path-sensitively: an
// interface-dispatch edge whose target's receiver type is already active on
// the current path is skipped (the decorator refinement — a value is never
// nested inside itself), and recursion is cut at functions already on the
// stack. activeTypes and onStack follow stack discipline across the walk.
func collectAcquires(fn *types.Func, direct map[*types.Func][]types.Object, callees map[*types.Func][]calleeEdge, activeTypes map[*types.TypeName]bool, onStack map[*types.Func]bool, out map[types.Object]bool) {
	if onStack[fn] {
		return
	}
	onStack[fn] = true
	self := receiverNamed(fn)
	pushed := self != nil && !activeTypes[self]
	if pushed {
		activeTypes[self] = true
	}
	for _, o := range direct[fn] {
		out[o] = true
	}
	for _, ce := range callees[fn] {
		if ce.viaIface {
			if r := receiverNamed(ce.g); r != nil && activeTypes[r] {
				continue
			}
		}
		collectAcquires(ce.g, direct, callees, activeTypes, onStack, out)
	}
	if pushed {
		delete(activeTypes, self)
	}
	delete(onStack, fn)
}

// functionLockEdges runs the held-set dataflow over one function's CFG: a
// DFS carrying the set of locks held, memoized on (block, held-set) so loops
// converge. Deferred unlocks keep the lock held for the rest of the function
// (that is exactly how long the runtime holds it).
func functionLockEdges(fd *funcDecl, cg *callGraph, direct map[*types.Func][]types.Object, callees map[*types.Func][]calleeEdge) []lockEdge {
	body := fd.decl.Body
	hasLockOps := false
	inspectSkippingFuncLits(body, func(n ast.Node) {
		if hasLockOps {
			return
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if obj, _ := mutexOp(fd.pkg, call); obj != nil {
				hasLockOps = true
			}
		}
	})
	if !hasLockOps {
		return nil
	}

	cfg := BuildCFG(body)
	var edges []lockEdge
	// Stable ints for held-set memo keys.
	objIDs := make(map[types.Object]int)
	idOf := func(o types.Object) int {
		if id, ok := objIDs[o]; ok {
			return id
		}
		id := len(objIDs)
		objIDs[o] = id
		return id
	}
	heldKey := func(held map[types.Object]bool) string {
		ids := make([]int, 0, len(held))
		for o := range held {
			ids = append(ids, idOf(o))
		}
		sort.Ints(ids)
		return fmt.Sprint(ids)
	}
	emit := func(held map[types.Object]bool, to types.Object, pos token.Pos, via *types.Func) {
		for from := range held {
			edges = append(edges, lockEdge{from: from, to: to, pos: pos, pkgPath: fd.pkg.Path, via: via})
		}
	}
	// Path-sensitive may-acquire sets for callees, seeded with this
	// function's own receiver type so a callee's interface dispatch cannot
	// resolve back into the type we are analyzing. Memoized per callee — the
	// seed is fixed for the whole function.
	acqMemo := make(map[*types.Func]map[types.Object]bool)
	acquiresOf := func(g *types.Func) map[types.Object]bool {
		if set, ok := acqMemo[g]; ok {
			return set
		}
		set := make(map[types.Object]bool)
		active := make(map[*types.TypeName]bool)
		if self := receiverNamed(fd.fn); self != nil {
			active[self] = true
		}
		collectAcquires(g, direct, callees, active, make(map[*types.Func]bool), set)
		acqMemo[g] = set
		return set
	}

	visited := make(map[string]bool)
	var walk func(blk *Block, held map[types.Object]bool)
	walk = func(blk *Block, held map[types.Object]bool) {
		key := fmt.Sprintf("%d|%s", blk.Index, heldKey(held))
		if visited[key] {
			return
		}
		visited[key] = true
		cur := make(map[types.Object]bool, len(held))
		for o := range held {
			cur[o] = true
		}
		for _, n := range blk.Nodes {
			for _, op := range nodeLockOps(fd, cg, n) {
				switch op.kind {
				case opLock:
					emit(cur, op.obj, op.pos, nil)
					cur[op.obj] = true
				case opUnlock:
					delete(cur, op.obj)
				case opCall:
					if len(cur) == 0 {
						continue
					}
					for _, g := range op.callees {
						for to := range acquiresOf(g) {
							emit(cur, to, op.pos, g)
						}
					}
				}
			}
		}
		for _, succ := range blk.Succs {
			walk(succ, cur)
		}
	}
	walk(cfg.Entry, make(map[types.Object]bool))

	// Deterministic edge order independent of map iteration inside emit.
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].pos != edges[j].pos {
			return edges[i].pos < edges[j].pos
		}
		if edges[i].from.Pos() != edges[j].from.Pos() {
			return edges[i].from.Pos() < edges[j].from.Pos()
		}
		return edges[i].to.Pos() < edges[j].to.Pos()
	})
	return edges
}

// nodeLockOps lists the lock-relevant events of one CFG node in source
// order. A DeferStmt's unlock is dropped entirely: the lock stays held until
// function exit. Its lock (rare) is ignored too — it would happen at exit.
func nodeLockOps(fd *funcDecl, cg *callGraph, n ast.Node) []lockOp {
	if _, ok := n.(*ast.DeferStmt); ok {
		return nil
	}
	var ops []lockOp
	ast.Inspect(n, func(m ast.Node) bool {
		if m == nil {
			return false
		}
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			return false
		case *ast.GoStmt:
			return false
		case *ast.CallExpr:
			if obj, kind := mutexOp(fd.pkg, m); obj != nil {
				ops = append(ops, lockOp{kind: kind, obj: obj, pos: m.Pos()})
				return true
			}
			if gs := resolvedCallees(fd, cg, m); len(gs) > 0 {
				ops = append(ops, lockOp{kind: opCall, pos: m.Pos(), callees: gs})
			}
		}
		return true
	})
	return ops
}

// resolvedCallees lists the in-module functions a call may reach, applying
// the decorator refinement: interface impls on the calling method's own
// receiver type are dropped (see the analyzer doc).
func resolvedCallees(fd *funcDecl, cg *callGraph, call *ast.CallExpr) []*types.Func {
	static, impls := cg.callee(fd.pkg, call)
	self := receiverNamed(fd.fn)
	var gs []*types.Func
	if static != nil && cg.funcs[static] != nil {
		gs = append(gs, static)
	}
	for _, g := range impls {
		if g == nil || cg.funcs[g] == nil {
			continue
		}
		if self != nil && receiverNamed(g) == self {
			continue
		}
		gs = append(gs, g)
	}
	return gs
}

// receiverNamed returns the defining *types.TypeName of fn's receiver type,
// nil for plain functions.
func receiverNamed(fn *types.Func) *types.TypeName {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	t := sig.Recv().Type()
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj()
	}
	return nil
}

// cyclicNodes returns the lock objects inside some strongly connected
// component of size > 1 (Tarjan); self-edges are handled separately by the
// caller.
func cyclicNodes(edges []lockEdge) map[types.Object]bool {
	adj := make(map[types.Object][]types.Object)
	nodes := make(map[types.Object]bool)
	for _, e := range edges {
		nodes[e.from], nodes[e.to] = true, true
		if e.from != e.to {
			adj[e.from] = append(adj[e.from], e.to)
		}
	}
	var order []types.Object
	for n := range nodes {
		order = append(order, n)
	}
	sort.Slice(order, func(i, j int) bool { return order[i].Pos() < order[j].Pos() })

	index := make(map[types.Object]int)
	low := make(map[types.Object]int)
	onStack := make(map[types.Object]bool)
	var stack []types.Object
	next := 0
	inCycle := make(map[types.Object]bool)

	var strongconnect func(v types.Object)
	strongconnect = func(v types.Object) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if _, ok := index[w]; !ok {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []types.Object
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			if len(comp) > 1 {
				for _, w := range comp {
					inCycle[w] = true
				}
			}
		}
	}
	for _, v := range order {
		if _, ok := index[v]; !ok {
			strongconnect(v)
		}
	}
	return inCycle
}
