package analysis

import (
	"go/ast"
	"go/types"
)

// NewLockAcrossSend returns the analyzer flagging a sync.Mutex or RWMutex
// held across a blocking communication point: a channel send or receive, or
// a call to a Send/Recv method (the transport.Conn surface). A blocked
// transport peer must never be able to wedge every goroutine waiting on the
// same lock — the leader fans out to G members concurrently, so one stalled
// member holding a shared mutex across Send serializes (or deadlocks) the
// whole federation round.
//
// It is the second report of the module's held-lock walk, the held-set
// dataflow lockorder runs over each function body's CFG: a lock taken on one
// branch is held after the merge on that path, and a deferred Unlock keeps it
// held to the end of the function. The blocking operations are the ones
// written in the body; a send reached through a callee is not reported.
// Function literals start a fresh context: they run on another goroutine's
// schedule.
func NewLockAcrossSend(scopes []Scope) *Analyzer {
	a := &Analyzer{
		Name:   "lockacrosssend",
		Doc:    "a mutex must not be held across a channel operation or transport Send/Recv",
		Scopes: scopes,
	}
	a.Run = func(p *Pass) { reportLockFindings(p, p.Mod.lockEngine().blocking) }
	return a
}

var lockMethods = map[string]bool{"Lock": true, "RLock": true}
var unlockMethods = map[string]bool{"Unlock": true, "RUnlock": true}
var commMethods = map[string]bool{"Send": true, "Recv": true}

// mutexOp classifies a niladic Lock/RLock or Unlock/RUnlock call on a sync
// mutex (or a type embedding one). The lock's key is its class-level
// identity object; without type information, or when the receiver has no
// identity object, it is the rendered receiver.
func mutexOp(pkg *Package, call *ast.CallExpr) (lockOp, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || len(call.Args) != 0 {
		return lockOp{}, false
	}
	op := lockOp{kind: opLock, pos: call.Pos()}
	switch {
	case lockMethods[sel.Sel.Name]:
	case unlockMethods[sel.Sel.Name]:
		op.kind = opUnlock
	default:
		return lockOp{}, false
	}
	op.expr = types.ExprString(sel.X)
	if recv := receiverType(pkg.Info, sel); recv != nil {
		if !isSyncMutex(recv) {
			return lockOp{}, false
		}
		op.key.obj = lockIdentity(pkg.Info, sel.X, recv)
	}
	if op.key.obj == nil {
		op.key.expr = op.expr
	}
	return op, true
}

func isSyncMutex(t types.Type) bool {
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() != nil && obj.Pkg().Path() == "sync" &&
		(obj.Name() == "Mutex" || obj.Name() == "RWMutex") {
		return true
	}
	// Named types that embed a mutex promote Lock/Unlock; treat them as
	// mutexes too.
	if st, ok := named.Underlying().(*types.Struct); ok {
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if f.Embedded() && isSyncMutex(f.Type()) {
				return true
			}
		}
	}
	return false
}

// lockIdentity maps a mutex receiver expression to its class-level object:
// a struct field (`s.mu` → the mu field, shared by all instances), the named
// type for embedded promotion (`s.Lock()` → the type of s), or the variable
// itself for plain vars.
func lockIdentity(info *types.Info, recvExpr ast.Expr, recvType types.Type) types.Object {
	switch e := ast.Unparen(recvExpr).(type) {
	case *ast.SelectorExpr:
		return objectOf(info, e)
	case *ast.Ident:
		obj := objectOf(info, e)
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
