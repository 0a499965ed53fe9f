package lint

import (
	"go/ast"
	"go/token"
)

// MaskRelease enforces the mask ownership contract: every value
// obtained from LoadMask must, on every path out of the function,
// either be released (ReleaseMask, a pool Put) or escape to an owner
// that pins it — returned to the caller, stored into a
// struct field, map, slice, channel or composite literal, or captured
// by a closure. A mask that reaches no release and no owner bypasses
// the sync.Pool recycling that keeps a steady verification stream
// allocation-free (store.Store doc), which is exactly how the
// baseline engines silently churned a full mask allocation per
// verification until this analyzer first ran.
//
// The analysis is flow-sensitive within one function body:
//
//   - Path-sensitive at returns: each return statement is checked
//     against the releases seen on its own path, so an early error
//     return that skips the release is flagged even when the happy
//     path releases.
//   - Optimistic at merges: a release in either arm of an
//     if/switch/select counts afterwards, accepting the codebase's
//     sanctioned `if r, ok := loader.(MaskRecycler); ok {
//     r.ReleaseMask(m) }` idiom.
//   - Loop-aware: a mask loaded inside a loop body must be released
//     (or escape) before the body ends — a release after the loop
//     runs once while the leak repeats per iteration.
//   - Err-guard aware: in `m, err := LoadMask(..)`, the then-branch
//     of `if err != nil` treats m as nil (LoadMask returns no mask
//     alongside an error).
//
// Function literals are analyzed as functions of their own; an outer
// mask referenced inside one escapes (the closure owns it).
var MaskRelease = &Analyzer{
	Name: "maskrelease",
	Doc:  "every LoadMask result must reach ReleaseMask (or a pool/pinning owner) on all paths",
	Run: func(p *Pass) {
		for _, f := range p.Pkg.Files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
					analyzeMaskFlow(p, fd.Body)
				}
			}
			// Top-level `var f = func() {...}` values.
			ast.Inspect(f, func(n ast.Node) bool {
				if _, ok := n.(*ast.FuncDecl); ok {
					return false
				}
				if fl, ok := n.(*ast.FuncLit); ok {
					analyzeMaskFlow(p, fl.Body)
					return false
				}
				return true
			})
		}
	},
}

// releaseCallNames transfer ownership back to the store or pool.
var releaseCallNames = map[string]bool{
	"ReleaseMask": true,
	"Put":         true, // sync.Pool recycling on error paths
}

// maskScope is the per-path analysis state.
type maskScope struct {
	// live maps a mask variable's name to its LoadMask call position.
	live map[string]token.Pos
	// errFor maps an error variable assigned alongside a mask to that
	// mask's name, for the err-guard special case.
	errFor map[string]string
}

func newMaskScope() *maskScope {
	return &maskScope{live: map[string]token.Pos{}, errFor: map[string]string{}}
}

func (s *maskScope) clone() *maskScope {
	c := newMaskScope()
	for k, v := range s.live {
		c.live[k] = v
	}
	for k, v := range s.errFor {
		c.errFor[k] = v
	}
	return c
}

// mergeBranches folds two branch outcomes back into s: a variable
// survives only if both branches left it live (optimistic: released
// anywhere counts), while loads new to a branch propagate.
func (s *maskScope) mergeBranches(a, b *maskScope) {
	parent := make(map[string]bool, len(s.live))
	for name := range s.live {
		parent[name] = true
	}
	for name := range parent {
		if _, inA := a.live[name]; !inA {
			delete(s.live, name)
			continue
		}
		if _, inB := b.live[name]; !inB {
			delete(s.live, name)
		}
	}
	// Loads that first appeared inside a branch propagate; a parent
	// load released in one branch must not reappear from the other.
	for name, pos := range a.live {
		if !parent[name] {
			s.live[name] = pos
		}
	}
	for name, pos := range b.live {
		if !parent[name] {
			s.live[name] = pos
		}
	}
}

type maskFlow struct {
	pass     *Pass
	reported map[token.Pos]bool
}

func analyzeMaskFlow(p *Pass, body *ast.BlockStmt) {
	mf := &maskFlow{pass: p, reported: map[token.Pos]bool{}}
	scope := newMaskScope()
	terminated := mf.walkStmts(body.List, scope)
	if !terminated {
		mf.reportLive(scope, "function end")
	}
}

func (mf *maskFlow) report(pos token.Pos, where string) {
	if mf.reported[pos] {
		return
	}
	mf.reported[pos] = true
	mf.pass.Reportf(pos,
		"mask from LoadMask is not released on every path (leaks at %s): call ReleaseMask / recycle it, let it escape to an owner, or suppress with a reasoned msvet:ignore",
		where)
}

func (mf *maskFlow) reportLive(s *maskScope, where string) {
	for _, pos := range s.live {
		mf.report(pos, where)
	}
}

// walkStmts processes stmts in order, returning whether the path
// terminates (ends in a return).
func (mf *maskFlow) walkStmts(stmts []ast.Stmt, s *maskScope) bool {
	for _, stmt := range stmts {
		if mf.walkStmt(stmt, s) {
			return true
		}
	}
	return false
}

func (mf *maskFlow) walkStmt(stmt ast.Stmt, s *maskScope) bool {
	switch v := stmt.(type) {
	case *ast.AssignStmt:
		mf.walkAssign(v, s)
	case *ast.ExprStmt:
		mf.scanExpr(v.X, s)
		if isTerminalCall(v) {
			return true
		}
	case *ast.DeferStmt:
		// A deferred release runs on every path out of the function.
		mf.scanExpr(v.Call, s)
	case *ast.GoStmt:
		// The goroutine takes ownership of anything it references.
		mf.scanExpr(v.Call, s)
		for _, arg := range v.Call.Args {
			mf.escapeOwned(arg, s)
		}
	case *ast.SendStmt:
		mf.scanExpr(v.Value, s)
		mf.escapeOwned(v.Value, s)
	case *ast.ReturnStmt:
		for _, res := range v.Results {
			mf.scanExpr(res, s)
			mf.escapeOwned(res, s)
		}
		mf.reportLive(s, "return")
		return true
	case *ast.IfStmt:
		return mf.walkIf(v, s)
	case *ast.ForStmt:
		if v.Init != nil {
			mf.walkStmt(v.Init, s)
		}
		if v.Cond != nil {
			mf.scanExpr(v.Cond, s)
		}
		if v.Post != nil {
			mf.walkStmt(v.Post, s)
		}
		mf.walkLoopBody(v.Body, s)
	case *ast.RangeStmt:
		mf.scanExpr(v.X, s)
		mf.walkLoopBody(v.Body, s)
	case *ast.BlockStmt:
		return mf.walkStmts(v.List, s)
	case *ast.SwitchStmt:
		if v.Init != nil {
			mf.walkStmt(v.Init, s)
		}
		if v.Tag != nil {
			mf.scanExpr(v.Tag, s)
		}
		mf.walkCases(v.Body, s)
	case *ast.TypeSwitchStmt:
		if v.Init != nil {
			mf.walkStmt(v.Init, s)
		}
		mf.walkCases(v.Body, s)
	case *ast.SelectStmt:
		mf.walkCases(v.Body, s)
	case *ast.LabeledStmt:
		return mf.walkStmt(v.Stmt, s)
	case *ast.DeclStmt:
		ast.Inspect(v, func(n ast.Node) bool {
			if e, ok := n.(ast.Expr); ok {
				mf.scanExpr(e, s)
				return false
			}
			return true
		})
	case *ast.IncDecStmt:
		mf.scanExpr(v.X, s)
	}
	return false
}

func (mf *maskFlow) walkAssign(v *ast.AssignStmt, s *maskScope) {
	for _, rhs := range v.Rhs {
		mf.scanExpr(rhs, s)
	}
	// Storing a live mask into a field, index or dereference hands it
	// to a pinning owner (only the mask itself — a call result stored
	// there is a new value, not the mask).
	for i, lhs := range v.Lhs {
		switch lhs.(type) {
		case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
			if i < len(v.Rhs) {
				mf.escapeOwned(v.Rhs[i], s)
			} else if len(v.Rhs) == 1 {
				mf.escapeOwned(v.Rhs[0], s)
			}
		}
	}
	// Track a fresh load: m, err := X.LoadMask(id).
	if len(v.Rhs) != 1 {
		return
	}
	call, ok := v.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	name := calleeName(call)
	if name != "LoadMask" {
		return
	}
	maskName := identName(v.Lhs[0])
	if maskName == "" || maskName == "_" {
		return
	}
	s.live[maskName] = call.Pos()
	if len(v.Lhs) == 2 {
		if errName := identName(v.Lhs[1]); errName != "" && errName != "_" {
			s.errFor[errName] = maskName
		}
	}
}

func (mf *maskFlow) walkIf(v *ast.IfStmt, s *maskScope) bool {
	if v.Init != nil {
		mf.walkStmt(v.Init, s)
	}
	mf.scanExpr(v.Cond, s)

	// Err-guard: `if err != nil { ... }` right after `m, err :=
	// LoadMask(..)` — no mask exists on the error branch.
	guardedMask, negated := mf.errGuard(v.Cond, s)

	thenScope := s.clone()
	if guardedMask != "" && !negated {
		delete(thenScope.live, guardedMask)
	}
	thenTerm := mf.walkStmts(v.Body.List, thenScope)

	elseScope := s.clone()
	if guardedMask != "" && negated {
		delete(elseScope.live, guardedMask)
	}
	elseTerm := false
	if v.Else != nil {
		elseTerm = mf.walkStmt(v.Else, elseScope)
	}

	switch {
	case thenTerm && elseTerm:
		return true
	case thenTerm:
		*s = *elseScope
	case elseTerm:
		*s = *thenScope
	default:
		s.mergeBranches(thenScope, elseScope)
		// The guard deleted the mask from the error branch because it
		// never existed there, not because it was released: liveness
		// after the merge is whatever the non-error branch decided.
		if guardedMask != "" {
			nonErr := elseScope
			if negated {
				nonErr = thenScope
			}
			if pos, ok := nonErr.live[guardedMask]; ok {
				s.live[guardedMask] = pos
			}
		}
	}
	return false
}

// terminalCallNames end the path like a return does: a mask live at a
// log.Fatal or os.Exit never reaches a caller that could release it,
// and the process is gone anyway.
var terminalCallNames = map[string]bool{
	"Fatal":   true,
	"Fatalf":  true,
	"Fatalln": true,
	"Exit":    true,
	"panic":   true,
	"Goexit":  true,
}

func isTerminalCall(stmt ast.Stmt) bool {
	es, ok := stmt.(*ast.ExprStmt)
	if !ok {
		return false
	}
	call, ok := es.X.(*ast.CallExpr)
	return ok && terminalCallNames[calleeName(call)]
}

// errGuard recognizes `err != nil` (negated=false: the mask is absent
// in the then-branch) and `err == nil` (negated=true: absent in the
// else-branch) for an err paired with a tracked mask.
func (mf *maskFlow) errGuard(cond ast.Expr, s *maskScope) (maskName string, negated bool) {
	bin, ok := cond.(*ast.BinaryExpr)
	if !ok {
		return "", false
	}
	if bin.Op != token.NEQ && bin.Op != token.EQL {
		return "", false
	}
	var errSide ast.Expr
	if isNilIdent(bin.Y) {
		errSide = bin.X
	} else if isNilIdent(bin.X) {
		errSide = bin.Y
	} else {
		return "", false
	}
	errName := identName(errSide)
	mask, ok := s.errFor[errName]
	if !ok {
		return "", false
	}
	return mask, bin.Op == token.EQL
}

// walkLoopBody analyzes a loop body: loads introduced inside the body
// must die (release or escape) before the body ends, because the leak
// repeats every iteration.
func (mf *maskFlow) walkLoopBody(body *ast.BlockStmt, s *maskScope) {
	before := s.clone()
	bodyScope := s.clone()
	mf.walkStmts(body.List, bodyScope)
	for name, pos := range bodyScope.live {
		if _, existed := before.live[name]; !existed {
			mf.report(pos, "end of loop body")
		}
	}
	// Outer masks released inside the body count as released after it.
	for name := range before.live {
		if _, still := bodyScope.live[name]; !still {
			delete(s.live, name)
		}
	}
}

// walkCases handles switch/select bodies with the optimistic merge.
func (mf *maskFlow) walkCases(body *ast.BlockStmt, s *maskScope) {
	before := s.clone()
	var ends []*maskScope
	for _, cs := range body.List {
		caseScope := before.clone()
		var stmts []ast.Stmt
		switch c := cs.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				mf.scanExpr(e, caseScope)
			}
			stmts = c.Body
		case *ast.CommClause:
			if c.Comm != nil {
				mf.walkStmt(c.Comm, caseScope)
			}
			stmts = c.Body
		}
		if !mf.walkStmts(stmts, caseScope) {
			ends = append(ends, caseScope)
		}
	}
	if len(ends) == 0 {
		return
	}
	// A pre-existing mask survives only if every falling-through case
	// left it live (optimistic: released in any case counts); a mask
	// loaded inside a case propagates.
	result := before.clone()
	for name := range before.live {
		for _, e := range ends {
			if _, ok := e.live[name]; !ok {
				delete(result.live, name)
				break
			}
		}
	}
	for _, e := range ends {
		for name, pos := range e.live {
			if _, ok := before.live[name]; !ok {
				result.live[name] = pos
			}
		}
		for errName, mask := range e.errFor {
			result.errFor[errName] = mask
		}
	}
	*s = *result
}

// scanExpr looks for releases and escapes inside an expression.
// Passing a mask to an ordinary call is a read, not a transfer — only
// the release calls, append, composite literals and closures take
// ownership.
func (mf *maskFlow) scanExpr(expr ast.Expr, s *maskScope) {
	if expr == nil {
		return
	}
	ast.Inspect(expr, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			// A closure is its own function; anything it captures from
			// this scope escapes into it.
			analyzeMaskFlow(mf.pass, v.Body)
			mf.escapeOwned(v, s)
			return false
		case *ast.CallExpr:
			name := calleeName(v)
			if releaseCallNames[name] || name == "append" {
				for _, arg := range v.Args {
					mf.escapeOwned(arg, s)
				}
			}
		case *ast.CompositeLit:
			for _, elt := range v.Elts {
				mf.escapeOwned(elt, s)
			}
		}
		return true
	})
}

// escapeOwned removes a live mask handed over BY VALUE in expr: the
// identifier itself, possibly behind &/(), inside a composite
// literal, or as the receiver of a field selection. A call expression
// produces a new value, so its arguments do not escape through it.
func (mf *maskFlow) escapeOwned(expr ast.Expr, s *maskScope) {
	switch v := expr.(type) {
	case *ast.Ident:
		delete(s.live, v.Name)
	case *ast.UnaryExpr:
		mf.escapeOwned(v.X, s)
	case *ast.StarExpr:
		mf.escapeOwned(v.X, s)
	case *ast.ParenExpr:
		mf.escapeOwned(v.X, s)
	case *ast.SelectorExpr:
		// Storing m.Bytes pins the mask's buffer just as storing m does.
		mf.escapeOwned(v.X, s)
	case *ast.KeyValueExpr:
		mf.escapeOwned(v.Value, s)
	case *ast.CompositeLit:
		for _, elt := range v.Elts {
			mf.escapeOwned(elt, s)
		}
	case *ast.FuncLit:
		// A closure capture: anything the literal references escapes
		// into it.
		ast.Inspect(v.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				delete(s.live, id.Name)
			}
			return true
		})
	}
}

func identName(e ast.Expr) string {
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}
