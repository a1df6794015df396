package analysis

// cfg.go is the flow-sensitive layer of the analysis framework: an
// intraprocedural control-flow graph over one go/ast function body. The
// lifecycle analyzers (mustrelease, lockorder) and any future path-sensitive
// check walk this graph instead of re-deriving Go's control flow from syntax:
// branches, loops (including `for {}` and range loops), labeled
// break/continue, goto, switch/type-switch with fallthrough, select, and the
// two exit kinds — return and panic-shaped termination — are all edges here.
//
// Defer is deliberately *not* lowered away: a DeferStmt stays a normal node
// in the block where it executes, so a path-walking analysis sees exactly
// which defers were registered on the path it is exploring (a defer inside a
// branch only guards paths through that branch; a defer inside a loop
// registers once per iteration but runs at function exit — Block.LoopDepth
// lets analyzers flag that shape).

import (
	"go/ast"
	"go/token"
)

// Block is one basic block: a maximal run of straight-line atomic nodes.
// Nodes holds simple statements (assignments, expression statements, defers,
// returns, sends, declarations) and bare expressions (branch conditions,
// switch tags, case expressions, range operands) in execution order;
// composite statements never appear — the builder lowers them to edges.
type Block struct {
	Index int
	Nodes []ast.Node
	Succs []*Block

	// Branch, when non-nil, is the boolean condition this block ends on;
	// Succs[0] is then the true edge and Succs[1] the false edge. Blocks
	// ending any other way make no ordering promise about Succs.
	Branch ast.Expr

	// LoopDepth counts the enclosing loops of this block within the
	// function (0 = not inside any loop). Defer registered at LoopDepth>0
	// runs at function exit, not loop exit — the classic accumulation bug.
	LoopDepth int
}

// CFG is the control-flow graph of one function body. Entry has no
// predecessors; Exit collects every terminating edge — returns, falling off
// the end of the body, and panic-shaped calls (panic, os.Exit, log.Fatal*,
// runtime.Goexit). Deferred calls run on all Exit edges except the os.Exit
// family; analyses that care can inspect the terminating node.
type CFG struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block
}

// BuildCFG constructs the graph for one function body. It never fails: in
// the worst case (pathological gotos) the graph degrades to coarser blocks,
// and unreachable statements become blocks without predecessors.
func BuildCFG(body *ast.BlockStmt) *CFG {
	b := &cfgBuilder{cfg: &CFG{}}
	b.cfg.Entry = b.newBlock()
	b.cfg.Exit = b.newBlock()
	b.cur = b.cfg.Entry
	b.labels = make(map[string]*labelRecord)
	b.stmtList(body.List)
	// Falling off the end of the body is an implicit return.
	b.jumpTo(b.cfg.Exit)
	return b.cfg
}

// branchScope is one enclosing breakable/continuable construct.
type branchScope struct {
	label   string // non-empty when the construct is labeled
	isLoop  bool   // continue only binds to loops
	breakTo *Block
	contTo  *Block // nil for switch/select
}

// labelRecord resolves gotos (possibly forward) and labeled statements.
type labelRecord struct {
	block *Block
}

type cfgBuilder struct {
	cfg       *CFG
	cur       *Block // nil when the current point is unreachable
	loopDepth int
	scopes    []*branchScope
	labels    map[string]*labelRecord

	// pendingLabel holds a label naming the next loop/switch/select, so the
	// construct can bind labeled break/continue to itself.
	pendingLabel string
}

func (b *cfgBuilder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks), LoopDepth: b.loopDepth}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

// startBlock makes blk current (creating an implicit fall-through edge from
// the previous current block when one exists).
func (b *cfgBuilder) startBlock(blk *Block) {
	if b.cur != nil {
		b.cur.Succs = append(b.cur.Succs, blk)
	}
	b.cur = blk
}

// jumpTo ends the current block with an edge to blk and marks the point
// unreachable (the caller starts a new block for whatever follows).
func (b *cfgBuilder) jumpTo(blk *Block) {
	if b.cur != nil {
		b.cur.Succs = append(b.cur.Succs, blk)
	}
	b.cur = nil
}

// add appends an atomic node to the current block, materializing a fresh
// unreachable block when control cannot reach here (dead code keeps its
// nodes so analyzers can still see it, just without predecessors).
func (b *cfgBuilder) add(n ast.Node) {
	if b.cur == nil {
		b.cur = b.newBlock()
	}
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *cfgBuilder) labelBlock(name string) *Block {
	if rec, ok := b.labels[name]; ok {
		return rec.block
	}
	blk := b.newBlock()
	b.labels[name] = &labelRecord{block: blk}
	return blk
}

func (b *cfgBuilder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// findScope resolves a break/continue target: the innermost matching scope,
// or the one carrying the label.
func (b *cfgBuilder) findScope(label string, needLoop bool) *branchScope {
	for i := len(b.scopes) - 1; i >= 0; i-- {
		sc := b.scopes[i]
		if needLoop && !sc.isLoop {
			continue
		}
		if label == "" || sc.label == label {
			return sc
		}
	}
	return nil
}

func (b *cfgBuilder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.LabeledStmt:
		lb := b.labelBlock(s.Label.Name)
		b.startBlock(lb)
		switch s.Stmt.(type) {
		case *ast.ForStmt, *ast.RangeStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
			b.pendingLabel = s.Label.Name
		}
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.IfStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Cond)
		condBlk := b.cur
		condBlk.Branch = s.Cond
		then := b.newBlock()
		join := b.newBlock()
		condBlk.Succs = append(condBlk.Succs, then) // true edge first
		b.cur = then
		b.stmt(s.Body)
		b.jumpTo(join)
		if s.Else != nil {
			els := b.newBlock()
			condBlk.Succs = append(condBlk.Succs, els)
			b.cur = els
			b.stmt(s.Else)
			b.jumpTo(join)
		} else {
			condBlk.Succs = append(condBlk.Succs, join)
		}
		b.cur = join

	case *ast.ForStmt:
		label := b.pendingLabel
		b.pendingLabel = ""
		if s.Init != nil {
			b.add(s.Init)
		}
		header := b.newBlock()
		b.startBlock(header)
		exit := b.newBlock()
		b.loopDepth++
		body := b.newBlock()
		var post *Block
		contTo := header
		if s.Post != nil {
			post = b.newBlock()
			contTo = post
		}
		if s.Cond != nil {
			header.Nodes = append(header.Nodes, s.Cond)
			header.Branch = s.Cond
			header.Succs = append(header.Succs, body, exit)
		} else {
			header.Succs = append(header.Succs, body)
		}
		b.scopes = append(b.scopes, &branchScope{label: label, isLoop: true, breakTo: exit, contTo: contTo})
		b.cur = body
		b.stmt(s.Body)
		if s.Post != nil {
			b.jumpTo(post)
			b.cur = post
			b.add(s.Post)
			b.jumpTo(header)
		} else {
			b.jumpTo(header)
		}
		b.scopes = b.scopes[:len(b.scopes)-1]
		b.loopDepth--
		exit.LoopDepth = b.loopDepth
		b.cur = exit

	case *ast.RangeStmt:
		label := b.pendingLabel
		b.pendingLabel = ""
		// The ranged operand is evaluated once, before the loop.
		b.add(s.X)
		header := b.newBlock()
		b.startBlock(header)
		exit := b.newBlock()
		b.loopDepth++
		body := b.newBlock()
		// A range loop either yields an element (body) or is exhausted
		// (exit); ranging over a channel blocks until a value or close.
		header.Succs = append(header.Succs, body, exit)
		b.scopes = append(b.scopes, &branchScope{label: label, isLoop: true, breakTo: exit, contTo: header})
		b.cur = body
		// Key/value bindings happen per iteration at the top of the body.
		if s.Key != nil {
			b.add(s.Key)
		}
		if s.Value != nil {
			b.add(s.Value)
		}
		b.stmt(s.Body)
		b.jumpTo(header)
		b.scopes = b.scopes[:len(b.scopes)-1]
		b.loopDepth--
		exit.LoopDepth = b.loopDepth
		b.cur = exit

	case *ast.SwitchStmt:
		label := b.pendingLabel
		b.pendingLabel = ""
		if s.Init != nil {
			b.add(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchBody(label, s.Body, func(c *ast.CaseClause) {
			for _, e := range c.List {
				b.add(e)
			}
		})

	case *ast.TypeSwitchStmt:
		label := b.pendingLabel
		b.pendingLabel = ""
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Assign)
		b.switchBody(label, s.Body, func(c *ast.CaseClause) {})

	case *ast.SelectStmt:
		label := b.pendingLabel
		b.pendingLabel = ""
		header := b.cur
		if header == nil {
			header = b.newBlock()
			b.cur = header
		}
		join := b.newBlock()
		sc := &branchScope{label: label, breakTo: join}
		b.scopes = append(b.scopes, sc)
		for _, cl := range s.Body.List {
			comm, ok := cl.(*ast.CommClause)
			if !ok {
				continue
			}
			caseBlk := b.newBlock()
			header.Succs = append(header.Succs, caseBlk)
			b.cur = caseBlk
			if comm.Comm != nil {
				b.add(comm.Comm)
			}
			b.stmtList(comm.Body)
			b.jumpTo(join)
		}
		b.scopes = b.scopes[:len(b.scopes)-1]
		// `select {}` blocks forever: no successors, everything after is
		// unreachable.
		if len(s.Body.List) == 0 {
			b.cur = nil
		} else {
			b.cur = join
		}

	case *ast.ReturnStmt:
		b.add(s)
		b.jumpTo(b.cfg.Exit)

	case *ast.BranchStmt:
		label := ""
		if s.Label != nil {
			label = s.Label.Name
		}
		switch s.Tok {
		case token.BREAK:
			if sc := b.findScope(label, false); sc != nil {
				b.jumpTo(sc.breakTo)
			} else {
				b.cur = nil
			}
		case token.CONTINUE:
			if sc := b.findScope(label, true); sc != nil && sc.contTo != nil {
				b.jumpTo(sc.contTo)
			} else {
				b.cur = nil
			}
		case token.GOTO:
			b.jumpTo(b.labelBlock(label))
		case token.FALLTHROUGH:
			// Handled structurally by switchBody; reaching here means a
			// malformed tree — drop the edge.
			b.cur = nil
		}

	case *ast.ExprStmt:
		b.add(s)
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && isTerminatorCall(call) {
			b.jumpTo(b.cfg.Exit)
		}

	case *ast.GoStmt, *ast.DeferStmt, *ast.AssignStmt, *ast.DeclStmt,
		*ast.IncDecStmt, *ast.SendStmt, *ast.EmptyStmt:
		b.add(s)

	default:
		if s != nil {
			b.add(s)
		}
	}
}

// switchBody lowers a (type) switch's case clauses: the header branches to
// every case (and to the join when there is no default); fallthrough chains
// a case body into the next case's body.
func (b *cfgBuilder) switchBody(label string, body *ast.BlockStmt, caseExprs func(*ast.CaseClause)) {
	header := b.cur
	if header == nil {
		header = b.newBlock()
		b.cur = header
	}
	join := b.newBlock()
	sc := &branchScope{label: label, breakTo: join}
	b.scopes = append(b.scopes, sc)

	var clauses []*ast.CaseClause
	for _, cl := range body.List {
		if c, ok := cl.(*ast.CaseClause); ok {
			clauses = append(clauses, c)
		}
	}
	caseBlocks := make([]*Block, len(clauses))
	for i := range clauses {
		caseBlocks[i] = b.newBlock()
	}
	hasDefault := false
	for i, c := range clauses {
		header.Succs = append(header.Succs, caseBlocks[i])
		if c.List == nil {
			hasDefault = true
		}
		b.cur = caseBlocks[i]
		caseExprs(c)
		// A trailing fallthrough chains into the next case's body.
		stmts := c.Body
		fallsThrough := false
		if n := len(stmts); n > 0 {
			if br, ok := stmts[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				stmts = stmts[:n-1]
				fallsThrough = true
			}
		}
		b.stmtList(stmts)
		if fallsThrough && i+1 < len(caseBlocks) {
			b.jumpTo(caseBlocks[i+1])
		} else {
			b.jumpTo(join)
		}
	}
	if !hasDefault {
		header.Succs = append(header.Succs, join)
	}
	b.scopes = b.scopes[:len(b.scopes)-1]
	b.cur = join
}

// isTerminatorCall reports calls that never return: the panic builtin and
// the well-known process/goroutine terminators. The match is syntactic — a
// shadowed `panic` or a local package named `os` would confuse it, shapes
// this codebase's style forbids anyway.
func isTerminatorCall(call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		pkg, ok := fun.X.(*ast.Ident)
		if !ok {
			return false
		}
		switch pkg.Name + "." + fun.Sel.Name {
		case "os.Exit", "runtime.Goexit", "log.Fatal", "log.Fatalf", "log.Fatalln":
			return true
		}
	}
	return false
}

// Reachable reports whether `to` is reachable from `from` over the graph's
// edges (inclusive of from == to).
func (c *CFG) Reachable(from, to *Block) bool {
	seen := make([]bool, len(c.Blocks))
	stack := []*Block{from}
	for len(stack) > 0 {
		blk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if blk == to {
			return true
		}
		if seen[blk.Index] {
			continue
		}
		seen[blk.Index] = true
		stack = append(stack, blk.Succs...)
	}
	return false
}
