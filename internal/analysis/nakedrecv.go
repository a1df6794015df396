package analysis

import (
	"go/ast"
	"go/types"
)

// NewNakedRecv returns the analyzer flagging direct Conn.Recv calls in the
// federation middleware. A naked receive waits forever on a peer: a crashed
// or partitioned member wedges the leader (and vice versa) with no way to
// retry, degrade to a quorum, or even report which member stalled. All
// federation receives must go through the one timed receive
// (transport.RecvContext, or helpers built on it) so every wait is bounded
// by the configured RPC or idle timeout and interrupted by cancellation. The transport package itself is out
// of scope — it is where the wrappers live.
//
// The check is syntactic with type-aware refinement: a niladic .Recv() call
// is flagged unless type information resolves the method to a signature that
// is not a message receive (two results ending in error).
func NewNakedRecv(scopes []Scope) *Analyzer {
	a := &Analyzer{
		Name:   "nakedrecv",
		Doc:    "federation code must not call Conn.Recv directly; use the timed transport.RecvContext so a silent peer cannot block forever",
		Scopes: scopes,
	}
	a.Run = func(p *Pass) {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok || len(call.Args) != 0 {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Recv" {
					return true
				}
				if !recvLooksLikeConn(p, sel) {
					return true
				}
				p.Reportf(call.Pos(),
					"direct %s.Recv() waits forever on a silent peer; use transport.RecvContext so the wait is bounded by the configured timeout",
					types.ExprString(sel.X))
				return true
			})
		}
	}
	return a
}

// recvLooksLikeConn reports whether the selected Recv method plausibly is a
// message-connection receive. Without type information it conservatively says
// yes; with it, the method must return exactly (message, error).
func recvLooksLikeConn(p *Pass, sel *ast.SelectorExpr) bool {
	if p.Pkg.Info == nil {
		return true
	}
	s, ok := p.Pkg.Info.Selections[sel]
	if !ok {
		// Package-level function or unresolved selector: only methods on a
		// value are connection receives.
		tv, ok := p.Pkg.Info.Types[sel.X]
		return ok && tv.IsValue()
	}
	sig, ok := s.Type().(*types.Signature)
	if !ok {
		return true
	}
	res := sig.Results()
	if res.Len() != 2 {
		return false
	}
	named, ok := res.At(1).Type().(*types.Named)
	return ok && named.Obj().Name() == "error"
}
