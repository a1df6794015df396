package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// NewWGMisuse returns the analyzer enforcing the two sync.WaitGroup rules
// the fan-out paths in internal/core and internal/federation depend on:
//
//  1. Add must happen before the goroutine starts. An Add inside the spawned
//     goroutine races with Wait — Wait can observe the counter at zero and
//     return while workers are still being scheduled, which under the
//     assessment pipeline means a phase reads partially-collected member
//     results.
//  2. Done must be deferred as the goroutine's first action. A trailing
//     Done is skipped by early returns and panics, leaving Wait blocked
//     forever — in federation terms, a leader that never finishes a round.
func NewWGMisuse(scopes []Scope) *Analyzer {
	a := &Analyzer{
		Name:   "wgmisuse",
		Doc:    "WaitGroup.Add belongs before the go statement; Done must be deferred inside the goroutine",
		Scopes: scopes,
	}
	a.Run = func(p *Pass) {
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				lit, ok := g.Call.Fun.(*ast.FuncLit)
				if !ok {
					return true
				}
				checkGoroutineBody(p, lit.Body)
				return true
			})
		}
	}
	return a
}

// checkGoroutineBody scans one spawned function literal, without descending
// into nested function literals (inner go statements are visited on their
// own).
func checkGoroutineBody(p *Pass, body *ast.BlockStmt) {
	deferred := make(map[*ast.CallExpr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.DeferStmt:
			deferred[s.Call] = true
		case *ast.CallExpr:
			sel, ok := s.Fun.(*ast.SelectorExpr)
			if !ok || len(s.Args) > 1 {
				return true
			}
			switch sel.Sel.Name {
			case "Add":
				if len(s.Args) == 1 && isWaitGroup(p, sel) {
					p.Reportf(s.Pos(),
						"%s.Add inside the spawned goroutine races with Wait (the counter can hit zero before this runs); call Add before the go statement",
						types.ExprString(sel.X))
				}
			case "Done":
				if len(s.Args) == 0 && isWaitGroup(p, sel) && !deferred[s] {
					p.Reportf(s.Pos(),
						"%s.Done is not deferred: an early return or panic skips it and Wait blocks forever; use `defer %s.Done()` at goroutine start",
						types.ExprString(sel.X), types.ExprString(sel.X))
				}
			}
		}
		return true
	})
}

// isWaitGroup resolves the selector receiver to sync.WaitGroup when type
// information is available; otherwise a conservative name heuristic keeps
// the check alive on partially-checked packages.
func isWaitGroup(p *Pass, sel *ast.SelectorExpr) bool {
	if t := receiverType(p.Pkg.Info, sel); t != nil {
		if ptr, ok := t.Underlying().(*types.Pointer); ok {
			t = ptr.Elem()
		}
		named, ok := t.(*types.Named)
		return ok && named.Obj().Pkg() != nil &&
			named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == "WaitGroup"
	}
	recv := strings.ToLower(types.ExprString(sel.X))
	return strings.HasSuffix(recv, "wg") || strings.Contains(recv, "waitgroup")
}
