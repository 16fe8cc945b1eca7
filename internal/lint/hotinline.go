package lint

import (
	"go/ast"
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
//   - Interface-method calls: hotalloc owns dynamic dispatch.
//   - Out-of-module callees: the stdlib's hot-path helpers (encoding/
//     binary, atomics) are intrinsified or inlined already.
//
// Indirect calls through a function value are flagged from the source:
// they cannot be inlined at all, which on a hot loop deserves the same
// scrutiny.
var HotInline = &Analyzer{
	Name: "hotinline",
	Doc:  "flag hot-loop calls the inliner refuses for a reason other than size",
	Run:  runHotInline,
}

func runHotInline(pass *Pass) error {
	c := pass.Facts.compiled
	eachDirectHot(pass, func(fd *ast.FuncDecl, inScope func(ast.Node) bool) {
		for _, call := range loopCallExprs(fd) {
			if !inScope(call) {
				continue
			}
			site, indirect := hotCallee(pass.Info, pass.Facts, call)
			if indirect {
				pass.Report(call.Pos(), "%s calls %s through a function value in a hot loop; an indirect call "+
					"cannot be inlined — devirtualize it (call the function directly) or hoist the dispatch out of the loop",
					fd.Name.Name, types.ExprString(call.Fun))
				continue
			}
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

// loopCallExprs returns the CallExprs of fd that lie in loop blocks
// and outside early-exit branches, in block order.
func loopCallExprs(fd *ast.FuncDecl) []*ast.CallExpr {
	// Calls in early-exit branches run at most once per loop, so they
	// are not steady-state.
	exits := earlyExits(fd.Body)
	inExit := func(n ast.Node) bool {
		for e := range exits {
			if n.Pos() >= e.Pos() && n.End() <= e.End() {
				return true
			}
		}
		return false
	}
	var calls []*ast.CallExpr
	for _, node := range loopNodes(fd.Body) {
		ast.Inspect(node, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.CallExpr:
				if !inExit(n) {
					calls = append(calls, n)
				}
			}
			return true
		})
	}
	return calls
}

// hotCallee resolves a hot-loop call to what hotinline asks the
// compiler about: the in-module declaration it calls directly, or
// indirect for a call through a function value. Conversions, builtins,
// literals invoked in place, interface methods, out-of-module and
// //mlec:cold callees resolve to neither.
func hotCallee(info *types.Info, facts *Facts, call *ast.CallExpr) (site *declSite, indirect bool) {
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return nil, false
	}
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.FuncLit:
		return nil, false
	case *ast.Ident:
		if _, ok := info.ObjectOf(fun).(*types.Builtin); ok {
			return nil, false
		}
	}
	callee := calleeFunc(info, call)
	if callee == nil {
		return nil, true
	}
	if sig := callee.Type().(*types.Signature); sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
		return nil, false
	}
	ds := facts.decls[callee]
	if ds == nil || ds.decl.Body == nil || facts.IsCold(callee) {
		return nil, false
	}
	return ds, false
}
