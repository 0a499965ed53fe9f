package lint

import (
	"go/ast"
	"strings"
)

// loadCallNames are the calls that hit storage (or run a verification
// kernel over a freshly loaded mask) from inside the checked
// packages. A loop issuing them without polling its context is the
// cancellation stall fixed in PR 4: a Filter over 100k targets kept
// loading masks for seconds after the client had gone away. The
// distributed layer adds its blocking network calls: a retry loop
// around them that ignores ctx would keep dialing dead nodes after
// the query was cancelled.
var loadCallNames = map[string]bool{
	"LoadMask":  true,
	"verify":    true,
	"roundTrip": true,
	"helloAddr": true,
}

// ctxLoopScope is the packages CtxLoop checks: the verification core
// and the distributed layer, whose loops hold connections and disk
// reads that must stop when the caller goes away.
var ctxLoopScope = map[string]bool{
	"masksearch/internal/core": true,
	"masksearch/internal/dist": true,
	"masksearch/cmd/msshard":   true,
}

// CtxLoop flags for/range loops in internal/core whose body loads
// masks (or calls the verification kernel) without a cancellation
// poll: a core.CheckCtx call, a ctx.Err() check, or a select on
// ctx.Done(). The check is satisfied anywhere in the loop body
// subtree, so an outer loop whose inner loop polls passes. Syntactic
// approximation: a context variable is any identifier whose name
// contains "ctx".
var CtxLoop = &Analyzer{
	Name: "ctxloop",
	Doc:  "verification and network loops in core, dist and msshard must poll ctx (CheckCtx, ctx.Err or select on ctx.Done) every iteration",
	Run: func(p *Pass) {
		if !ctxLoopScope[p.Pkg.Path] {
			return
		}
		inspectFiles(p.Pkg, func(_ *ast.File, _ string, n ast.Node) bool {
			var body *ast.BlockStmt
			switch loop := n.(type) {
			case *ast.ForStmt:
				body = loop.Body
			case *ast.RangeStmt:
				body = loop.Body
			default:
				return true
			}
			if containsLoadCall(body) && !containsCtxCheck(body) {
				p.Reportf(n.Pos(),
					"loop loads masks without checking ctx: call core.CheckCtx (or poll ctx.Err/select on ctx.Done) every iteration so cancellation reaches the verification path")
			}
			return true
		})
	},
}

func containsLoadCall(body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		// A load inside a function literal (a per-iteration goroutine,
		// or a callback handed to an orchestrator) is not this loop's
		// stall: the function runs under its own control flow, which
		// is checked wherever it loops itself.
		if _, ok := n.(*ast.FuncLit); ok && n != body {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && loadCallNames[calleeName(call)] {
			found = true
		}
		return !found
	})
	return found
}

func containsCtxCheck(body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return !found
		}
		switch name := calleeName(call); name {
		case "CheckCtx":
			found = true
		case "Err", "Done":
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && strings.Contains(strings.ToLower(id.Name), "ctx") {
					found = true
				}
			}
		}
		return !found
	})
	return found
}
