package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotInline flags per-iteration calls in //mlec:hot loops that the gc
// inliner refuses for a reason other than size: a defer, a recover, a
// go:noinline mark, recursion. For such a callee the call overhead
// (argument marshalling, frame setup, lost registerization) is paid
// once per hot-loop iteration for no reason the callee's work explains.
// The verdict is the compiler's own (oracle.go): a call site with an
// `inlining call to` line is fine, and otherwise the callee's
// `cannot inline F: reason` line is quoted in the finding.
//
// What is NOT flagged, and why:
//
//   - Callees over the inliner's cost budget ("function too complex"):
//     the per-call overhead is amortized over the callee's own work —
//     the gf256 word kernels are the canonical case.
//   - Calls in an early-exit branch (an if/case body ending in return
//     or panic): they run at most once per loop, not per iteration.
//   - //mlec:cold callees: the annotation is the reviewed claim that
//     the call is off the steady-state path (amortized poll points).
//   - Interface-method calls and calls through a function value:
//     hotalloc owns dynamic dispatch.
//   - Out-of-module callees: the stdlib's hot-path helpers (encoding/
//     binary, atomics) are intrinsified or inlined already.
var HotInline = &Analyzer{
	Name: "hotinline",
	Doc:  "flag hot-loop calls the inliner refuses for a reason other than size",
	Run:  runHotInline,
}

func runHotInline(pass *Pass) error {
	c := pass.Facts.compiled
	eachHotScope(pass, true, func(fd *ast.FuncDecl, inScope func(token.Pos) bool) {
		for _, call := range loopCalls(loopNodes(fd.Body), pass.steadyState(fd.Body)) {
			if !inScope(call.Pos()) {
				continue
			}
			site := hotCallee(pass.Info, pass.Facts, call)
			if site == nil {
				continue
			}
			if lp := pass.Fset.Position(call.Lparen); c.inlined[srcPos{lp.Filename, lp.Line, lp.Column}] {
				continue
			}
			decl := site.pkg.Fset.Position(site.decl.Name.Pos())
			reason := c.refused[srcPos{file: decl.Filename, line: decl.Line}]
			if reason == "" || strings.HasPrefix(reason, "function too complex") {
				continue
			}
			pass.Report(call.Pos(), "%s calls %s in a hot loop, but the compiler cannot inline it: %s; "+
				"restructure the callee (hoist the blocker out) or annotate it //mlec:cold with a rationale "+
				"if the call is off the steady-state path", fd.Name.Name, site.decl.Name.Name, reason)
		}
	})
	return nil
}

// loopCalls returns the calls inside a function's loop nodes (loopNodes)
// that are steady-state work (steadyState), in block order.
func loopCalls(loops []ast.Node, steady func(token.Pos) bool) []*ast.CallExpr {
	var calls []*ast.CallExpr
	for _, node := range loops {
		ast.Inspect(node, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok && steady(call.Pos()) {
				calls = append(calls, call)
			}
			return true
		})
	}
	return calls
}

// steadyState returns a test for whether a position in body is
// steady-state work of its function. Three extents are not: early-exit
// branches — if/else blocks and case/comm clauses whose last statement
// is a return or a panic, which run at most once per call or per loop;
// function literal bodies, which run on their invoker's schedule; and
// calls to //mlec:cold functions, the reviewed claim that the call is
// off the steady-state path.
func (p *Pass) steadyState(body *ast.BlockStmt) func(token.Pos) bool {
	var off []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			off = append(off, n.Body)
			return false
		case *ast.IfStmt:
			if terminates(n.Body.List) {
				off = append(off, n.Body)
			}
			if els, ok := n.Else.(*ast.BlockStmt); ok && terminates(els.List) {
				off = append(off, els)
			}
		case *ast.CaseClause:
			if terminates(n.Body) {
				off = append(off, n)
			}
		case *ast.CommClause:
			if terminates(n.Body) {
				off = append(off, n)
			}
		case *ast.CallExpr:
			if fn := calleeFunc(p.Info, n); fn != nil && p.Facts.IsCold(fn) {
				off = append(off, n)
			}
		}
		return true
	})
	return func(pos token.Pos) bool {
		for _, n := range off {
			if pos >= n.Pos() && pos < n.End() {
				return false
			}
		}
		return true
	}
}

// terminates reports whether a statement list ends in a return or a
// call to panic — the early-exit shape that takes a block off the
// steady state.
func terminates(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch last := list[len(list)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := last.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	}
	return false
}

// hotCallee resolves a hot-loop call to what hotinline asks the
// compiler about: the in-module declaration it calls directly. Calls
// through a function value or an interface, conversions, builtins,
// literals invoked in place, out-of-module and //mlec:cold callees
// resolve to nil.
func hotCallee(info *types.Info, facts *Facts, call *ast.CallExpr) *declSite {
	callee := calleeFunc(info, call)
	if callee == nil || facts.IsCold(callee) {
		return nil
	}
	if ds := facts.decls[callee]; ds != nil && ds.decl.Body != nil {
		return ds
	}
	return nil
}
