package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// SecretClass partitions the secrets of the threat model (PAPER.md §4).
// Aggregate secrets (allele-count vectors, MAF/pair-stat vectors) are
// cohort-level statistics: they must not reach host-visible sinks in
// plaintext, but they are legitimate checkpoint content once declared.
// Per-individual secrets (genotype matrices, LR-matrix rows, key material)
// additionally may never be persisted through internal/checkpoint at all —
// even AEAD-sealed — because checkpoints outlive the enclave.
type SecretClass uint8

const (
	// ClassAggregate marks cohort-level summary statistics.
	ClassAggregate SecretClass = 1 << iota
	// ClassIndividual marks per-individual data and key material.
	ClassIndividual
	// ClassUnordered marks values whose bits depend on a scheduling or
	// iteration order Go leaves unspecified (map ranges, select races,
	// goroutine fan-in). Such values are not secret — they must simply never
	// reach a cross-member-deterministic statistic without an ordering
	// barrier. The divergentfloat analyzer owns this class.
	ClassUnordered
)

// classSecret masks the confidentiality classes: the egress and checkpoint
// sinks care about secrets, never about the determinism-only unordered bit.
const classSecret = ClassAggregate | ClassIndividual

func (c SecretClass) String() string {
	switch {
	case c&ClassIndividual != 0 && c&ClassAggregate != 0:
		return "per-individual and aggregate"
	case c&ClassIndividual != 0:
		return "per-individual"
	case c&ClassAggregate != 0:
		return "aggregate"
	case c&ClassUnordered != 0:
		return "order-nondeterministic"
	}
	return "none"
}

// taintVal is the engine's abstract value: which secret classes the value
// carries in plaintext (raw) or AEAD-protected form (sealed), plus — while a
// function is being summarized — which of its parameters the value depends
// on, raw or through a sealing declassifier.
type taintVal struct {
	raw          SecretClass
	sealed       SecretClass
	params       uint64
	sealedParams uint64
}

func (t taintVal) empty() bool {
	return t.raw == 0 && t.sealed == 0 && t.params == 0 && t.sealedParams == 0
}

func (t taintVal) union(o taintVal) taintVal {
	return taintVal{
		raw:          t.raw | o.raw,
		sealed:       t.sealed | o.sealed,
		params:       t.params | o.params,
		sealedParams: t.sealedParams | o.sealedParams,
	}
}

// sealTV demotes raw taint to sealed: the value passed through an approved
// AEAD declassifier, so it may leave the enclave — but a per-individual
// payload remains banned from checkpoints.
func (t taintVal) sealTV() taintVal {
	return taintVal{
		sealed:       t.raw | t.sealed,
		sealedParams: t.params | t.sealedParams,
	}
}

// anyClass is every class bit the value carries, raw or sealed.
func (t taintVal) anyClass() SecretClass { return t.raw | t.sealed }

// funcSummary is the transfer function of one module function: how taint
// moves from its parameters (receiver first) to its results, which
// parameters reach an egress or checkpoint sink somewhere beneath it, and
// which struct fields it taints from its parameters.
type funcSummary struct {
	nparams int
	results []taintVal

	// sinkParams: parameters whose raw taint reaches a plaintext-egress
	// sink (log, error construction, writer, unsecured transport send).
	sinkParams uint64
	sinkVia    map[int]string

	// ckptParams: parameters that reach a checkpoint sink, raw or sealed.
	ckptParams uint64
	ckptVia    map[int]string

	// obvParams: parameters that decide a branch, bound a loop, index
	// memory, size an allocation or feed a panic somewhere beneath this
	// function (outside oblivious barriers). An oblivious-scope caller
	// passing per-individual data here voids the access-pattern guarantee.
	obvParams uint64
	obvVia    map[int]string

	// ordParams: parameters that reach an order-sensitive statistic sink
	// (the Table-4/Table-5 figures that must be bit-identical across
	// members) without an ordering barrier in between.
	ordParams uint64
	ordVia    map[int]string

	// fieldWrites: parameter-relative taint flowing into struct fields.
	fieldWrites map[*types.Var]taintVal
}

func (s *funcSummary) mergeInto(dst *funcSummary) bool {
	changed := false
	for i, r := range s.results {
		if i >= len(dst.results) {
			dst.results = append(dst.results, r)
			changed = true
			continue
		}
		u := dst.results[i].union(r)
		if u != dst.results[i] {
			dst.results[i] = u
			changed = true
		}
	}
	if s.sinkParams&^dst.sinkParams != 0 {
		dst.sinkParams |= s.sinkParams
		changed = true
	}
	for k, v := range s.sinkVia {
		if _, ok := dst.sinkVia[k]; !ok {
			if dst.sinkVia == nil {
				dst.sinkVia = make(map[int]string)
			}
			dst.sinkVia[k] = v
		}
	}
	if s.ckptParams&^dst.ckptParams != 0 {
		dst.ckptParams |= s.ckptParams
		changed = true
	}
	for k, v := range s.ckptVia {
		if _, ok := dst.ckptVia[k]; !ok {
			if dst.ckptVia == nil {
				dst.ckptVia = make(map[int]string)
			}
			dst.ckptVia[k] = v
		}
	}
	if s.obvParams&^dst.obvParams != 0 {
		dst.obvParams |= s.obvParams
		changed = true
	}
	for k, v := range s.obvVia {
		if _, ok := dst.obvVia[k]; !ok {
			if dst.obvVia == nil {
				dst.obvVia = make(map[int]string)
			}
			dst.obvVia[k] = v
		}
	}
	if s.ordParams&^dst.ordParams != 0 {
		dst.ordParams |= s.ordParams
		changed = true
	}
	for k, v := range s.ordVia {
		if _, ok := dst.ordVia[k]; !ok {
			if dst.ordVia == nil {
				dst.ordVia = make(map[int]string)
			}
			dst.ordVia[k] = v
		}
	}
	for f, v := range s.fieldWrites {
		u := dst.fieldWrites[f].union(v)
		if u != dst.fieldWrites[f] {
			if dst.fieldWrites == nil {
				dst.fieldWrites = make(map[*types.Var]taintVal)
			}
			dst.fieldWrites[f] = u
			changed = true
		}
	}
	return changed
}

// funcAnalysis is one intraprocedural pass over a function body (including
// its nested function literals, which share the local taint environment so
// closure captures propagate naturally).
type funcAnalysis struct {
	eng    *taintEngine
	fd     *funcDecl
	report bool

	sig        *types.Signature
	paramIdx   map[types.Object]int
	resultIdx  map[types.Object]int
	obj        map[types.Object]taintVal
	lits       map[types.Object]*ast.FuncLit
	litReturns map[*ast.FuncLit][]ast.Expr
	sum        *funcSummary
	changed    bool

	// obvScope: the function lives in an access-pattern-critical scope and
	// is not a sanctioned barrier — per-individual taint must not steer
	// control flow or memory addressing here. obvBarrier functions skip both
	// the checks and the obvParams bookkeeping (their body IS the sanctioned
	// constant-time or ORAM primitive).
	obvScope   bool
	obvBarrier bool

	// fanIn holds the channel objects this function fans goroutine results
	// into without an index: receives from them are order-nondeterministic.
	fanIn map[types.Object]bool
}

func newFuncAnalysis(eng *taintEngine, fd *funcDecl, report bool) *funcAnalysis {
	fa := &funcAnalysis{
		eng:        eng,
		fd:         fd,
		report:     report,
		paramIdx:   make(map[types.Object]int),
		resultIdx:  make(map[types.Object]int),
		obj:        make(map[types.Object]taintVal),
		lits:       make(map[types.Object]*ast.FuncLit),
		litReturns: make(map[*ast.FuncLit][]ast.Expr),
	}
	sig := fd.fn.Type().(*types.Signature)
	fa.sig = sig
	n := 0
	if recv := sig.Recv(); recv != nil {
		fa.paramIdx[recv] = 0
		n = 1
	}
	for i := 0; i < sig.Params().Len(); i++ {
		fa.paramIdx[sig.Params().At(i)] = n
		n++
	}
	fa.sum = &funcSummary{
		nparams: n,
		results: make([]taintVal, sig.Results().Len()),
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if v := sig.Results().At(i); v.Name() != "" {
			fa.resultIdx[v] = i
		}
	}
	// Parameters start tainted with their own bit (for the summary) —
	// concrete class taint arrives from call sites, annotations, or the
	// parameter's use of secret fields.
	for obj, i := range fa.paramIdx {
		if i < 64 {
			fa.obj[obj] = taintVal{params: 1 << i}
		}
	}
	if eng.spec.Oblivious != nil {
		fa.obvBarrier = eng.obliviousBarrier(fd.fn)
		fa.obvScope = !fa.obvBarrier && eng.obliviousScope(fd)
	}
	// Inside an oblivious scope a parameter whose static type can hold
	// per-individual data is assumed to carry it: the scope exists because
	// such data is processed there, and waiting for a concretely tainted
	// call site would leave intra-scope leaks (a branch on a genotype bit in
	// the ORAM loader) invisible when every caller lives outside the scope.
	// Reporting pass only — seeding summaries would smear concrete class
	// taint onto every caller module-wide.
	if report && fa.obvScope {
		for obj := range fa.paramIdx {
			if cls := eng.typeSecretClass(obj.Type()) & ClassIndividual; cls != 0 {
				t := fa.obj[obj]
				t.raw |= cls
				fa.obj[obj] = t
			}
		}
	}
	fa.scanFanIn()
	return fa
}

// scanFanIn finds channels this function body sends to from more than one
// unordered producer: two or more go-launched literals, or one launched
// inside a loop. Receives from such a channel observe a scheduling order Go
// does not define.
func (fa *funcAnalysis) scanFanIn() {
	body := fa.fd.decl.Body
	if body == nil {
		return
	}
	// Loop extents (including loops inside literals) decide whether a single
	// go statement stands for many goroutines.
	type span struct{ lo, hi token.Pos }
	var loops []span
	ast.Inspect(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			loops = append(loops, span{n.Pos(), n.End()})
		}
		return true
	})
	inLoop := func(pos token.Pos) bool {
		for _, l := range loops {
			if l.lo <= pos && pos < l.hi {
				return true
			}
		}
		return false
	}
	senders := make(map[types.Object]int)
	ast.Inspect(body, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit)
		if !ok {
			return true
		}
		weight := 1
		if inLoop(g.Pos()) {
			weight = 2
		}
		ast.Inspect(lit.Body, func(m ast.Node) bool {
			send, ok := m.(*ast.SendStmt)
			if !ok {
				return true
			}
			if obj := fa.chanObj(send.Chan); obj != nil {
				w := weight
				if inLoop(send.Pos()) {
					w = 2
				}
				senders[obj] += w
			}
			return true
		})
		return true
	})
	for obj, n := range senders {
		if n >= 2 {
			if fa.fanIn == nil {
				fa.fanIn = make(map[types.Object]bool)
			}
			fa.fanIn[obj] = true
		}
	}
}

// chanObj resolves a channel expression to the object anchoring it: a local
// or package variable, or the struct field it is stored in.
func (fa *funcAnalysis) chanObj(e ast.Expr) types.Object {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		return fa.objectOf(x)
	case *ast.SelectorExpr:
		if f := fa.fieldOf(x); f != nil {
			return f
		}
	}
	return nil
}

// run iterates the flow-insensitive walk to a local fixpoint and returns the
// resulting summary.
func (fa *funcAnalysis) run() *funcSummary {
	for iter := 0; iter < 12; iter++ {
		fa.changed = false
		fa.walk(fa.fd.decl.Body)
		if !fa.changed {
			break
		}
	}
	return fa.sum
}

func (fa *funcAnalysis) info() *types.Info { return fa.fd.pkg.Info }

// errType is the universe error interface: error values never carry taint —
// leaks into error messages are flagged where the error is constructed
// (fmt.Errorf/errors.New are sinks), so wrapping and returning errors stays
// silent.
var errType = types.Universe.Lookup("error").Type()

func isErrorType(t types.Type) bool {
	return t != nil && types.Identical(t, errType)
}

// setObj unions taint into a local object, tracking convergence.
func (fa *funcAnalysis) setObj(obj types.Object, t taintVal) {
	if obj == nil || t.empty() || isErrorType(obj.Type()) {
		return
	}
	u := fa.obj[obj].union(t)
	if u != fa.obj[obj] {
		fa.obj[obj] = u
		fa.changed = true
	}
}

// walk processes every statement-level construct that moves taint and
// evaluates every call for its side effects (sinks, field writes).
func (fa *funcAnalysis) walk(body *ast.BlockStmt) { fa.walkBody(body, false) }

// walkBody is walk over one body. inLit is set inside a function literal,
// whose returns leave the literal, not the function: they reach the
// literal's callers through litReturns and never the function's results.
// Their expressions are still evaluated, for the sinks and field writes in
// them.
func (fa *funcAnalysis) walkBody(body *ast.BlockStmt, inLit bool) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			fa.assign(s)
		case *ast.ValueSpec:
			fa.valueSpec(s)
		case *ast.RangeStmt:
			if s.X != nil {
				t := fa.eval(s.X)
				// Iterating a map (or a fan-in channel) observes an order
				// the language does not define: the key and value pick up
				// the unordered class on top of the container's taint.
				if fa.unorderedRange(s.X) {
					t.raw |= ClassUnordered
				}
				// Over a slice, array, string or integer the key is a
				// position — metadata, not data. Map keys and channel
				// elements do carry the ranged value's taint.
				if fa.rangeKeyCarries(s.X) {
					fa.assignLHS(s.Key, t)
				}
				fa.assignLHS(s.Value, t)
			}
		case *ast.ReturnStmt:
			if !inLit {
				fa.returnStmt(s)
				break
			}
			for _, r := range s.Results {
				fa.eval(r)
			}
		case *ast.CallExpr:
			fa.eval(s)
		case *ast.IfStmt:
			fa.checkOblivious(s.Cond, "decides a branch")
		case *ast.ForStmt:
			fa.checkOblivious(s.Cond, "bounds a loop")
		case *ast.SwitchStmt:
			fa.checkOblivious(s.Tag, "decides a switch")
			for _, c := range s.Body.List {
				if cc, ok := c.(*ast.CaseClause); ok {
					for _, e := range cc.List {
						fa.checkOblivious(e, "decides a switch")
					}
				}
			}
		case *ast.SelectStmt:
			fa.selectStmt(s)
		case *ast.FuncLit:
			// The literal's parameters participate in the shared
			// environment.
			fa.litReturns[s] = collectReturns(s)
			fa.walkBody(s.Body, true)
			return false
		}
		return true
	})
}

// selectStmt marks values received in a multi-way select as unordered: which
// ready case wins is a scheduler race, so downstream statistics built from
// them can diverge across members.
func (fa *funcAnalysis) selectStmt(s *ast.SelectStmt) {
	comm := 0
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm != nil {
			comm++
		}
	}
	if comm < 2 {
		return
	}
	for _, c := range s.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		if assign, ok := cc.Comm.(*ast.AssignStmt); ok {
			for _, l := range assign.Lhs {
				fa.assignLHS(l, taintVal{raw: ClassUnordered})
			}
		}
	}
}

// unorderedRange reports whether ranging over x observes an unspecified
// order: any map, or a channel multiple goroutines fan into.
func (fa *funcAnalysis) unorderedRange(x ast.Expr) bool {
	tv, ok := fa.info().Types[x]
	if !ok || tv.Type == nil {
		return false
	}
	switch tv.Type.Underlying().(type) {
	case *types.Map:
		return true
	case *types.Chan:
		return fa.fanIn[fa.chanObj(x)]
	}
	return false
}

// checkOblivious guards one control-flow or addressing position inside an
// oblivious scope: concrete per-individual taint is a finding, parameter-
// relative taint becomes an obvParams summary bit so in-scope callers are
// flagged at the call site instead.
func (fa *funcAnalysis) checkOblivious(e ast.Expr, what string) {
	if e == nil || fa.eng.spec.Oblivious == nil || fa.obvBarrier {
		return
	}
	fa.checkObliviousTaint(e, fa.eval(e), what)
}

func (fa *funcAnalysis) checkObliviousTaint(e ast.Expr, t taintVal, what string) {
	if fa.eng.spec.Oblivious == nil || fa.obvBarrier {
		return
	}
	if t.raw&ClassIndividual == 0 && t.params == 0 {
		return
	}
	if fa.allowed("obliviousflow", e.Pos()) {
		return
	}
	if fa.obvScope && t.raw&ClassIndividual != 0 {
		fa.reportf("obliviousflow", e.Pos(),
			"per-individual data %s in oblivious code; route it through a constant-time primitive (internal/oblivious/ct) or a declared //gendpr:oblivious barrier", what)
	}
	fa.noteObv(t.params, what)
}

// collectReturns gathers the return expressions of a function literal,
// excluding returns that belong to literals nested inside it.
func collectReturns(lit *ast.FuncLit) []ast.Expr {
	var out []ast.Expr
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.FuncLit:
			return s == lit
		case *ast.ReturnStmt:
			out = append(out, s.Results...)
		}
		return true
	}
	ast.Inspect(lit, visit)
	return out
}

func (fa *funcAnalysis) assign(s *ast.AssignStmt) {
	if len(s.Rhs) == 1 && len(s.Lhs) > 1 {
		// Multi-value: every LHS receives the call/comma-ok taint.
		t := fa.eval(s.Rhs[0])
		for _, l := range s.Lhs {
			fa.assignLHS(l, t)
		}
		return
	}
	for i, l := range s.Lhs {
		if i >= len(s.Rhs) {
			break
		}
		t := fa.eval(s.Rhs[i])
		// Compound assignment (x += y) folds the RHS into the LHS value.
		fa.assignLHS(l, t)
		// Track local function-literal bindings for closure calls.
		if id, ok := ast.Unparen(l).(*ast.Ident); ok {
			if lit, ok := ast.Unparen(s.Rhs[i]).(*ast.FuncLit); ok {
				if obj := fa.objectOf(id); obj != nil {
					fa.lits[obj] = lit
				}
			}
		}
	}
}

func (fa *funcAnalysis) valueSpec(s *ast.ValueSpec) {
	if len(s.Values) == 1 && len(s.Names) > 1 {
		t := fa.eval(s.Values[0])
		for _, name := range s.Names {
			fa.setObj(fa.objectOf(name), t)
		}
		return
	}
	for i, name := range s.Names {
		if i >= len(s.Values) {
			break
		}
		t := fa.eval(s.Values[i])
		fa.setObj(fa.objectOf(name), t)
		if lit, ok := ast.Unparen(s.Values[i]).(*ast.FuncLit); ok {
			if obj := fa.objectOf(name); obj != nil {
				fa.lits[obj] = lit
			}
		}
	}
}

// assignLHS routes taint into the storage an LHS expression denotes: the
// local object, the root object of an index/deref chain, and — for field
// selectors — the module-global field fact the engine propagates.
func (fa *funcAnalysis) assignLHS(lhs ast.Expr, t taintVal) {
	if lhs == nil || t.empty() {
		return
	}
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		fa.setObj(fa.objectOf(l), t)
	case *ast.SelectorExpr:
		if fieldVar := fa.fieldOf(l); fieldVar != nil {
			fa.eng.writeField(fieldVar, t, fa)
		}
		fa.assignLHS(l.X, t)
	case *ast.IndexExpr:
		// Storing THROUGH a tainted index reveals the address just like a
		// read does.
		fa.checkObliviousTaint(l.Index, fa.eval(l.Index), "indexes memory")
		fa.assignLHS(l.X, t)
	case *ast.StarExpr:
		fa.assignLHS(l.X, t)
	}
}

func (fa *funcAnalysis) returnStmt(s *ast.ReturnStmt) {
	addResult := func(i int, t taintVal) {
		if i >= len(fa.sum.results) || t.empty() {
			return
		}
		if isErrorType(fa.sig.Results().At(i).Type()) {
			return
		}
		u := fa.sum.results[i].union(t)
		if u != fa.sum.results[i] {
			fa.sum.results[i] = u
			fa.changed = true
		}
	}
	if len(s.Results) == 0 {
		// Bare return: named results carry the taint.
		for obj, i := range fa.resultIdx {
			addResult(i, fa.obj[obj])
		}
		return
	}
	if len(s.Results) == 1 && len(fa.sum.results) > 1 {
		t := fa.eval(s.Results[0])
		for i := range fa.sum.results {
			addResult(i, t)
		}
		return
	}
	for i, r := range s.Results {
		addResult(i, fa.eval(r))
	}
}

// isNilExpr reports whether e is the predeclared nil.
func (fa *funcAnalysis) isNilExpr(e ast.Expr) bool {
	tv, ok := fa.info().Types[e]
	return ok && tv.IsNil()
}

// rangeKeyCarries reports whether the key variable of a range over x receives
// the ranged value's taint (maps and channels) or is a clean index/position
// (slices, arrays, strings, integers).
func (fa *funcAnalysis) rangeKeyCarries(x ast.Expr) bool {
	tv, ok := fa.info().Types[x]
	if !ok || tv.Type == nil {
		return true
	}
	switch tv.Type.Underlying().(type) {
	case *types.Slice, *types.Array, *types.Pointer, *types.Basic:
		return false
	}
	return true
}

func (fa *funcAnalysis) objectOf(id *ast.Ident) types.Object {
	if obj := fa.info().Defs[id]; obj != nil {
		return obj
	}
	return fa.info().Uses[id]
}

// fieldOf resolves a selector to the struct field it denotes, nil when the
// selector is not a field access.
func (fa *funcAnalysis) fieldOf(sel *ast.SelectorExpr) *types.Var {
	if s, ok := fa.info().Selections[sel]; ok && s.Kind() == types.FieldVal {
		if v, ok := s.Obj().(*types.Var); ok {
			return v
		}
	}
	return nil
}

// eval computes the taint of an expression, processing any embedded calls
// for their sink and field-write side effects.
func (fa *funcAnalysis) eval(e ast.Expr) taintVal {
	switch x := e.(type) {
	case nil:
		return taintVal{}
	case *ast.Ident:
		return fa.obj[fa.objectOf(x)]
	case *ast.ParenExpr:
		return fa.eval(x.X)
	case *ast.SelectorExpr:
		if fieldVar := fa.fieldOf(x); fieldVar != nil {
			// Field reads are field-based, not object-based: the taint of
			// s.f is what has been observed flowing into f anywhere (plus
			// its annotation), not the union of everything s holds in
			// other fields. This keeps "save(s.aggregates)" clean when s
			// also carries per-individual members.
			fa.eval(x.X)
			t := fa.eng.fieldTaint[fieldVar]
			if cls, ok := fa.eng.secretFields[fieldVar]; ok {
				t = t.union(taintVal{raw: cls})
			}
			// Parameter-relative writes made by the function under
			// analysis flow back into its own reads.
			return t.union(fa.sum.fieldWrites[fieldVar])
		}
		t := fa.eval(x.X)
		if obj := fa.info().Uses[x.Sel]; obj != nil {
			// Qualified identifier (pkg.Var) or method value.
			t = t.union(fa.obj[obj])
		}
		return t
	case *ast.CallExpr:
		return fa.call(x)
	case *ast.IndexExpr:
		if tv, ok := fa.info().Types[x.Index]; ok && tv.IsType() {
			// Generic instantiation, not an element access.
			return fa.eval(x.X)
		}
		it := fa.eval(x.Index)
		fa.checkObliviousTaint(x.Index, it, "indexes memory")
		return fa.eval(x.X).union(it)
	case *ast.SliceExpr:
		for _, idx := range []ast.Expr{x.Low, x.High, x.Max} {
			if idx != nil {
				fa.checkObliviousTaint(idx, fa.eval(idx), "indexes memory")
			}
		}
		return fa.eval(x.X)
	case *ast.StarExpr:
		return fa.eval(x.X)
	case *ast.UnaryExpr:
		t := fa.eval(x.X)
		if x.Op == token.ARROW && fa.fanIn[fa.chanObj(x.X)] {
			// Receiving from a fan-in channel: arrival order is a race.
			t.raw |= ClassUnordered
		}
		return t
	case *ast.BinaryExpr:
		switch x.Op {
		case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ,
			token.LAND, token.LOR:
			l := fa.eval(x.X)
			r := fa.eval(x.Y)
			if fa.isNilExpr(x.X) || fa.isNilExpr(x.Y) {
				// Comparing against nil observes presence, not content: a
				// `shard == nil` guard is uniform across cohorts and below
				// every analyzer's granularity.
				return taintVal{}
			}
			if x.Op == token.LAND || x.Op == token.LOR {
				// Short-circuit: evaluating the right operand is itself a
				// branch decided by the left one.
				fa.checkObliviousTaint(x.X, l, "decides a branch")
			}
			if fa.obvScope {
				// Inside oblivious scopes the one-bit predicate IS the
				// side channel: keep the per-individual component (and its
				// parameter relativity) so `ok := g == 1; if ok` and
				// branchy helper functions are still caught.
				u := l.union(r)
				return taintVal{raw: u.raw & ClassIndividual, params: u.params}
			}
			// Elsewhere a one-bit predicate is below the engine's
			// reporting granularity.
			return taintVal{}
		}
		return fa.eval(x.X).union(fa.eval(x.Y))
	case *ast.CompositeLit:
		// Struct literals record per-field taint (the field-based reads
		// above depend on it); the literal value keeps the union so a
		// whole struct passed to a sink still carries its content.
		var st *types.Struct
		if tv, ok := fa.info().Types[x]; ok && tv.Type != nil {
			under := tv.Type.Underlying()
			if p, ok := under.(*types.Pointer); ok {
				under = p.Elem().Underlying()
			}
			st, _ = under.(*types.Struct)
		}
		var t taintVal
		for i, el := range x.Elts {
			var vt taintVal
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				vt = fa.eval(kv.Value)
				if id, ok := kv.Key.(*ast.Ident); ok {
					if v, ok := fa.info().Uses[id].(*types.Var); ok && v.IsField() {
						fa.eng.writeField(v, vt, fa)
					}
				}
			} else {
				vt = fa.eval(el)
				if st != nil && i < st.NumFields() {
					fa.eng.writeField(st.Field(i), vt, fa)
				}
			}
			t = t.union(vt)
		}
		return t
	case *ast.TypeAssertExpr:
		return fa.eval(x.X)
	case *ast.FuncLit:
		fa.litReturns[x] = collectReturns(x)
		return taintVal{}
	}
	return taintVal{}
}

// litCallResult propagates a call through a locally bound function literal:
// arguments taint the literal's parameters, the result is the union of the
// literal's return expressions.
func (fa *funcAnalysis) litCallResult(lit *ast.FuncLit, args []ast.Expr) taintVal {
	if lit.Type.Params != nil {
		i := 0
		for _, field := range lit.Type.Params.List {
			for _, name := range field.Names {
				if i < len(args) {
					fa.setObj(fa.objectOf(name), fa.eval(args[i]))
				}
				i++
			}
			if len(field.Names) == 0 {
				i++
			}
		}
	}
	var t taintVal
	for _, r := range fa.litReturns[lit] {
		t = t.union(fa.eval(r))
	}
	return t
}

// argTaints evaluates the receiver-and-argument expressions of a call.
func (fa *funcAnalysis) argTaints(argExprs []ast.Expr) []taintVal {
	out := make([]taintVal, len(argExprs))
	for i, a := range argExprs {
		out[i] = fa.eval(a)
	}
	return out
}

// paramTaint maps a callee parameter index onto the call-site argument
// taints, folding variadic overflow onto the last parameter.
func paramTaint(args []taintVal, nparams, i int) taintVal {
	if nparams == 0 {
		return taintVal{}
	}
	var t taintVal
	for j, a := range args {
		idx := j
		if idx >= nparams {
			idx = nparams - 1
		}
		if idx == i {
			t = t.union(a)
		}
	}
	return t
}

// instantiate resolves a parameter-relative taint value against concrete
// call-site argument taints.
func instantiate(t taintVal, args []taintVal, nparams int) taintVal {
	out := taintVal{raw: t.raw, sealed: t.sealed}
	for i := 0; i < nparams && i < 64; i++ {
		if t.params&(1<<i) != 0 {
			out = out.union(paramTaint(args, nparams, i))
		}
		if t.sealedParams&(1<<i) != 0 {
			out = out.union(paramTaint(args, nparams, i).sealTV())
		}
	}
	return out
}

// allowed reports whether a gendpr:allow directive for analyzer covers pos.
// The engine consults directives while summarizing, so a justified sink use
// does not propagate blame chains into every caller.
func (fa *funcAnalysis) allowed(analyzer string, positions ...token.Pos) bool {
	for _, pos := range positions {
		p := fa.fd.pkg.Fset.Position(pos)
		if fa.eng.sup.allows(Diagnostic{Pos: p, Analyzer: analyzer}) {
			return true
		}
	}
	return false
}

// reportf records an engine finding (only on the reporting pass).
func (fa *funcAnalysis) reportf(analyzer string, pos token.Pos, format string, args ...any) {
	if !fa.report {
		return
	}
	fa.eng.addFinding(analyzer, fa.fd.pkg, pos, fmt.Sprintf(format, args...))
}
