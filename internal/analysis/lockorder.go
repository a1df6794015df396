package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// NewLockOrder returns the analyzer building the module-wide
// lock-acquisition-order graph and reporting cycles as potential deadlocks.
// An edge A→B is recorded whenever lock B is acquired while A is held —
// directly in one function body, declared or literal (the held-set dataflow
// on the CFG that lockacrosssend also reads), or through a call
// (the module call graph supplies, for every callee, the transitive closure of
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
	a := &Analyzer{
		Name:   "lockorder",
		Doc:    "lock acquisition order must be acyclic across the module; a cycle is a potential deadlock",
		Scopes: scopes,
	}
	a.Run = func(p *Pass) { reportLockFindings(p, p.Mod.lockEngine().order) }
	return a
}

// reportLockFindings reports the engine's findings in the pass's files.
func reportLockFindings(p *Pass, byFile map[*ast.File][]lockFinding) {
	for _, f := range p.Files {
		for _, fi := range byFile[f] {
			p.Reportf(fi.pos, "%s", fi.msg)
		}
	}
}

type lockFinding struct {
	pos token.Pos
	msg string
}

// lockKey identifies a lock in the held set: its class-level object, or the
// rendered receiver when type information cannot name one (the type-check
// degradation rule). Only object keys take part in the order graph.
type lockKey struct {
	obj  types.Object
	expr string
}

// heldLock records how a held lock was taken, for messages.
type heldLock struct {
	expr string    // rendered receiver, e.g. "r.mu"
	pos  token.Pos // the Lock call
}

// lockEdge is one "acquired while held" observation.
type lockEdge struct {
	from, to types.Object
	pos      token.Pos
	file     *ast.File
	via      *types.Func // non-nil when the acquisition happens inside a callee
}

// lockOp is one ordered event inside a function body.
type lockOp struct {
	kind    int
	key     lockKey
	expr    string // the mutex receiver, or the blocking operation's description
	pos     token.Pos
	callees []*types.Func
}

const (
	opLock = iota + 1
	opUnlock
	opCall
	opBlock // channel send or receive, or a Send/Recv call
)

// calleeEdge is one call-graph edge with its dispatch mode: viaIface marks a
// resolution through interface may-dispatch, which the decorator refinement
// is allowed to prune; static edges are always followed.
type calleeEdge struct {
	g        *types.Func
	viaIface bool
}

// lockEngine is the module's one held-lock walk: the held-set dataflow over
// every function body's CFG, read by two analyzers. lockorder reports the
// acquisition-order edges that close a cycle (order); lockacrosssend reports
// the blocking operations reached while a lock is held (blocking).
type lockEngine struct {
	order    map[*ast.File][]lockFinding
	blocking map[*ast.File][]lockFinding

	cg       *callGraph
	direct   map[*types.Func][]types.Object // locks each function takes itself
	callees  map[*types.Func][]calleeEdge
	edges    []lockEdge
	seenEdge map[edgeKey]bool
	seenBlk  map[blockingKey]bool
}

type blockingKey struct {
	pos token.Pos
	key lockKey
}

func buildLockEngine(mod *Module) *lockEngine {
	cg := mod.callGraph()
	w := &lockEngine{
		order:    make(map[*ast.File][]lockFinding),
		blocking: make(map[*ast.File][]lockFinding),
		cg:       cg,
		direct:   make(map[*types.Func][]types.Object),
		callees:  make(map[*types.Func][]calleeEdge),
		seenEdge: make(map[edgeKey]bool),
		seenBlk:  make(map[blockingKey]bool),
	}

	// Phase 1: per-function direct acquisitions and callee edges (tagged with
	// how the call dispatches, for the decorator refinement).
	for _, fd := range cg.funcs {
		w.scanFuncLocks(fd)
	}

	// Phase 2: held-set dataflow over every function body, declared or
	// literal; each literal is a fresh context.
	for _, pkg := range mod.Packages {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				var fn *types.Func
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
					fn, _ = objectOf(pkg.Info, fd.Name).(*types.Func)
					w.walk(pkg, f, fn, fd.Body)
				}
				ast.Inspect(d, func(n ast.Node) bool {
					if lit, ok := n.(*ast.FuncLit); ok {
						w.walk(pkg, f, fn, lit.Body)
					}
					return true
				})
			}
		}
	}

	// Phase 3: cycles. Every edge inside a strongly connected component of
	// size > 1, and every self-edge, is a finding at its site.
	inCycle := cyclicNodes(w.edges)
	label := func(obj types.Object) string {
		return fmt.Sprintf("%s (%s)", obj.Name(), mod.Fset.Position(obj.Pos()))
	}
	for _, e := range w.edges {
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
		w.order[e.file] = append(w.order[e.file], lockFinding{pos: e.pos, msg: msg})
	}
	return w
}

// scanFuncLocks fills the function's direct-acquire set and callee list for
// the may-acquire closure of calls. Function literals are skipped: they run
// on their own goroutine's schedule (or are invoked through a value the call
// graph cannot resolve), so attributing their locks to a caller's held set
// would fabricate edges.
func (w *lockEngine) scanFuncLocks(fd *funcDecl) {
	seenAcq := make(map[types.Object]bool)
	seenCallee := make(map[*types.Func]bool)
	inspectBody(fd.decl.Body, isFuncLit, func(n ast.Node) {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return
		}
		if op, ok := mutexOp(fd.pkg, call); ok {
			if obj := op.key.obj; op.kind == opLock && obj != nil && !seenAcq[obj] {
				seenAcq[obj] = true
				w.direct[fd.fn] = append(w.direct[fd.fn], obj)
			}
			return
		}
		static, impls := w.cg.callee(fd.pkg, call)
		for i, g := range append([]*types.Func{static}, impls...) {
			if g == nil || w.cg.funcs[g] == nil || seenCallee[g] {
				continue
			}
			seenCallee[g] = true
			w.callees[fd.fn] = append(w.callees[fd.fn], calleeEdge{g: g, viaIface: i > 0})
		}
	})
}

func isFuncLit(n ast.Node) bool {
	_, ok := n.(*ast.FuncLit)
	return ok
}

// collectAcquires accumulates into out every lock fn may acquire directly or
// through in-module calls, walking the call graph path-sensitively: an
// interface-dispatch edge whose target's receiver type is already active on
// the current path is skipped (the decorator refinement — a value is never
// nested inside itself), and recursion is cut at functions already on the
// stack. activeTypes and onStack follow stack discipline across the walk.
func (w *lockEngine) collectAcquires(fn *types.Func, activeTypes map[*types.TypeName]bool, onStack map[*types.Func]bool, out map[types.Object]bool) {
	if onStack[fn] {
		return
	}
	onStack[fn] = true
	self := receiverNamed(fn)
	pushed := self != nil && !activeTypes[self]
	if pushed {
		activeTypes[self] = true
	}
	for _, o := range w.direct[fn] {
		out[o] = true
	}
	for _, ce := range w.callees[fn] {
		if ce.viaIface {
			if r := receiverNamed(ce.g); r != nil && activeTypes[r] {
				continue
			}
		}
		w.collectAcquires(ce.g, activeTypes, onStack, out)
	}
	if pushed {
		delete(activeTypes, self)
	}
	delete(onStack, fn)
}

// walk runs the held-set dataflow over one body's CFG: a DFS carrying the
// set of locks held, memoized on (block, held set) so loops converge. A
// deferred Unlock keeps its lock held for the rest of the function (that is
// exactly how long the runtime holds it). fn is the declared function the
// body belongs to (nil for a package-level literal); its receiver type seeds
// the decorator refinement.
func (w *lockEngine) walk(pkg *Package, file *ast.File, fn *types.Func, body *ast.BlockStmt) {
	hasLockOps := false
	inspectBody(body, isFuncLit, func(n ast.Node) {
		if call, ok := n.(*ast.CallExpr); ok && !hasLockOps {
			_, hasLockOps = mutexOp(pkg, call)
		}
	})
	if !hasLockOps {
		return
	}

	cfg := BuildCFG(body)
	self := receiverNamed(fn)
	// Stable ints for held-set memo keys.
	keyIDs := make(map[lockKey]int)
	heldKey := func(held map[lockKey]heldLock) string {
		ids := make([]int, 0, len(held))
		for k := range held {
			id, ok := keyIDs[k]
			if !ok {
				id = len(keyIDs)
				keyIDs[k] = id
			}
			ids = append(ids, id)
		}
		sort.Ints(ids)
		return fmt.Sprint(ids)
	}
	emit := func(held map[lockKey]heldLock, to types.Object, pos token.Pos, via *types.Func) {
		for from := range held {
			k := edgeKey{from: from.obj, to: to, pos: pos}
			if from.obj == nil || w.seenEdge[k] {
				continue
			}
			w.seenEdge[k] = true
			w.edges = append(w.edges, lockEdge{from: from.obj, to: to, pos: pos, file: file, via: via})
		}
	}
	block := func(held map[lockKey]heldLock, op lockOp) {
		for k, h := range held {
			if w.seenBlk[blockingKey{op.pos, k}] {
				continue
			}
			w.seenBlk[blockingKey{op.pos, k}] = true
			w.blocking[file] = append(w.blocking[file], lockFinding{pos: op.pos, msg: fmt.Sprintf(
				"%s while %s is locked (Lock at %s): a blocked peer stalls every goroutine waiting on the mutex; release before the blocking operation",
				op.expr, h.expr, pkg.Fset.Position(h.pos))})
		}
	}
	// Path-sensitive may-acquire sets for callees, seeded with this
	// function's own receiver type so a callee's interface dispatch cannot
	// resolve back into the type we are analyzing. Memoized per callee — the
	// seed is fixed for the whole body.
	acqMemo := make(map[*types.Func]map[types.Object]bool)
	acquiresOf := func(g *types.Func) map[types.Object]bool {
		if set, ok := acqMemo[g]; ok {
			return set
		}
		set := make(map[types.Object]bool)
		active := make(map[*types.TypeName]bool)
		if self != nil {
			active[self] = true
		}
		w.collectAcquires(g, active, make(map[*types.Func]bool), set)
		acqMemo[g] = set
		return set
	}

	visited := make(map[string]bool)
	var visit func(blk *Block, held map[lockKey]heldLock)
	visit = func(blk *Block, held map[lockKey]heldLock) {
		key := fmt.Sprintf("%d|%s", blk.Index, heldKey(held))
		if visited[key] {
			return
		}
		visited[key] = true
		cur := make(map[lockKey]heldLock, len(held))
		for k, h := range held {
			cur[k] = h
		}
		var ops []lockOp
		for _, n := range blk.Nodes {
			ops = append(ops, w.nodeOps(pkg, self, n)...)
		}
		for _, op := range ops {
			if len(cur) == 0 && op.kind != opLock {
				continue
			}
			switch op.kind {
			case opLock:
				if op.key.obj != nil {
					emit(cur, op.key.obj, op.pos, nil)
				}
				cur[op.key] = heldLock{expr: op.expr, pos: op.pos}
			case opUnlock:
				delete(cur, op.key)
			case opCall:
				for _, g := range op.callees {
					for to := range acquiresOf(g) {
						emit(cur, to, op.pos, g)
					}
				}
			case opBlock:
				block(cur, op)
			}
		}
		for _, succ := range blk.Succs {
			visit(succ, cur)
		}
	}
	visit(cfg.Entry, make(map[lockKey]heldLock))
}

type edgeKey struct {
	from, to types.Object
	pos      token.Pos
}

// nodeOps lists the lock-relevant events of one CFG node in source order.
// A deferred or spawned call does not run here: it takes no lock and calls
// nothing at this point (so a deferred Unlock keeps its lock held to the end
// of the function), but a blocking operation written in it is still
// reported.
func (w *lockEngine) nodeOps(pkg *Package, self *types.TypeName, n ast.Node) []lockOp {
	var ops []lockOp
	var scan func(root ast.Node, deferred bool)
	scan = func(root ast.Node, deferred bool) {
		ast.Inspect(root, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				return false
			case *ast.DeferStmt, *ast.GoStmt:
				if !deferred {
					scan(m, true)
					return false
				}
			case *ast.SendStmt:
				ops = append(ops, lockOp{kind: opBlock, expr: "channel send", pos: m.Pos()})
			case *ast.UnaryExpr:
				if m.Op == token.ARROW {
					ops = append(ops, lockOp{kind: opBlock, expr: "channel receive", pos: m.Pos()})
				}
			case *ast.CallExpr:
				if sel, ok := ast.Unparen(m.Fun).(*ast.SelectorExpr); ok && commMethods[sel.Sel.Name] {
					ops = append(ops, lockOp{kind: opBlock, expr: "call to " + types.ExprString(sel.X) + "." + sel.Sel.Name, pos: m.Pos()})
				}
				if deferred {
					return true
				}
				if op, ok := mutexOp(pkg, m); ok {
					ops = append(ops, op)
					return true
				}
				if gs := w.resolvedCallees(pkg, self, m); len(gs) > 0 {
					ops = append(ops, lockOp{kind: opCall, pos: m.Pos(), callees: gs})
				}
			}
			return true
		})
	}
	scan(n, false)
	return ops
}

// resolvedCallees lists the in-module functions a call may reach, applying
// the decorator refinement: interface impls on the calling method's own
// receiver type are dropped (see the analyzer doc).
func (w *lockEngine) resolvedCallees(pkg *Package, self *types.TypeName, call *ast.CallExpr) []*types.Func {
	static, impls := w.cg.callee(pkg, call)
	var gs []*types.Func
	for i, g := range append([]*types.Func{static}, impls...) {
		if g == nil || w.cg.funcs[g] == nil || (i > 0 && self != nil && receiverNamed(g) == self) {
			continue
		}
		gs = append(gs, g)
	}
	return gs
}

// receiverNamed returns the defining *types.TypeName of fn's receiver type,
// nil for plain functions and a nil fn.
func receiverNamed(fn *types.Func) *types.TypeName {
	if fn == nil {
		return nil
	}
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
