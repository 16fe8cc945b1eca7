package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
)

// HotAlloc enforces the hot-path contract: no steady-state heap
// allocation, and no per-iteration cost the compiler cannot remove,
// inside a //mlec:hot function or region or a function hot by
// propagation. It asks the compiler first and the source second:
//
//   - Heap allocations are the compiler's verdict (oracle.go): every
//     `escapes to heap` and `moved to heap` line of the -m=2 build —
//     make, new, literals, capturing closures, method values, string
//     conversions, escaping variadic slices, interface boxing, the
//     arguments a fmt call boxes. A local the escape analysis keeps on
//     the stack prints nothing and is no finding. A function literal
//     that captures nothing is a static function value: the compiler
//     prints it as escaping, but it allocates nothing and is skipped.
//   - Appends, from the source, because the compiler prints nothing for
//     a growing append. An append with no capacity plan may grow its
//     backing array — a heap allocation plus a copy, amortized but never
//     free, and in a loop a repeated reallocation cascade. Two plans
//     count (unplannedAppends): the slice was defined by an
//     explicit-capacity make (make(T, len, cap)) earlier in the
//     function, or it was re-sliced to s[:0], the warm-buffer reuse
//     pattern. In both cases the result must flow back into the same
//     local (s = append(s, ...)); appending into a different variable
//     abandons the plan.
//   - Dynamic dispatch in a loop — an interface method call or a call
//     through a function value. No allocation, but the indirect call
//     defeats inlining and reloads the itable every iteration, which is
//     exactly the cost the gf256 kernels avoid by taking concrete
//     slices. Outside loops it is not reported.
//   - Defer in a loop. No allocation the compiler prints for a direct
//     call, but each iteration chains a defer record and nothing runs
//     until the function returns — so the usual close-per-iteration
//     intent is wrong twice over. Loop membership comes from the CFG,
//     so loops written with a backward goto count; a defer outside any
//     loop is fine and unreported even in hot scope.
//
// Only steady-state work is judged (steadyState): an early-exit branch
// (an if/case body ending in return or panic — error formatting,
// precondition panics), a function literal's body and a call to a
// //mlec:cold function are not.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "forbid steady-state heap allocations on //mlec:hot paths (the compiler's escapes, unplanned appends), and dynamic dispatch and defer in their loops",
	Run:  runHotAlloc,
}

func runHotAlloc(pass *Pass) error {
	eachHotScope(pass, false, func(fd *ast.FuncDecl, inScope func(token.Pos) bool) {
		name, label := fd.Name.Name, pass.HotLabel(fd)
		if !pass.FuncHot(fd) {
			label = "inside //mlec:hot region of " + name
		}
		steady := pass.steadyState(fd.Body)
		judged := func(p token.Pos) bool { return inScope(p) && steady(p) }
		loops := loopNodes(fd.Body)
		inLoop := func(p token.Pos) bool {
			return slices.ContainsFunc(loops, func(n ast.Node) bool { return p >= n.Pos() && p < n.End() })
		}
		captureFree := captureFreeLits(pass.Info, fd.Body)
		for _, h := range pass.Facts.compiled.heap[pass.Fset.File(fd.Pos()).Name()] {
			p, ok := pass.compilerPos(fd, h.srcPos)
			if !ok || !judged(p) || captureFree[p] {
				continue
			}
			where := "on the hot path"
			if inLoop(p) {
				where = "in a hot loop"
			}
			pass.Report(p, "%s %s heap-allocates %s (the compiler: %s; %s); hoist it out, reuse a buffer, or annotate the function //mlec:cold with a rationale",
				name, where, h.what, h.verdict, label)
		}
		for _, call := range unplannedAppends(pass.Info, fd.Body) {
			switch p := call.Pos(); {
			case !judged(p):
			case inLoop(p):
				pass.Report(p, "%s appends in a hot loop without a capacity plan (%s); preallocate with make(T, 0, n) before the loop or reuse a buffer via s = s[:0]",
					name, label)
			default:
				pass.Report(p, "%s appends on the hot path without a capacity plan (%s); preallocate with an explicit-capacity make",
					name, label)
			}
		}
		for _, call := range loopCalls(loops, steady) {
			if what := dispatch(pass.Info, call); what != "" && inScope(call.Pos()) {
				pass.Report(call.Pos(), "%s has %s in a hot loop (%s); devirtualize to a concrete call or hoist the decision out of the loop",
					name, what, label)
			}
		}
		for _, n := range loops {
			if d, ok := n.(*ast.DeferStmt); ok && judged(d.Pos()) {
				pass.Report(d.Pos(), "%s defers inside a hot loop (%s); each iteration allocates a defer record that only runs at return — call directly or wrap the iteration in a function",
					name, label)
			}
		}
	})
	return nil
}

// captureFreeLits returns the positions of body's function literals
// that capture no variable: static function values, which the compiler
// reports as escaping but never allocates.
func captureFreeLits(info *types.Info, body *ast.BlockStmt) map[token.Pos]bool {
	free := make(map[token.Pos]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		captures := false
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return !captures
			}
			// A variable declared outside the literal but inside some
			// function is a capture; package-level variables are not.
			if v, ok := info.Uses[id].(*types.Var); ok && v.Pkg() != nil && v.Parent() != v.Pkg().Scope() &&
				(v.Pos() < lit.Pos() || v.Pos() >= lit.End()) {
				captures = true
			}
			return !captures
		})
		free[lit.Pos()] = !captures
		return true
	})
	return free
}

// unplannedAppends returns the appends of body (outside function
// literals) that have no capacity plan: the result is not assigned back
// to the local slice appended to, or no explicit-capacity make
// (make(T, len, cap)) or reuse reslice (s = s[:0]) defined that local
// earlier in the body.
func unplannedAppends(info *types.Info, body *ast.BlockStmt) []*ast.CallExpr {
	planned := make(map[types.Object]token.Pos) // local → its first plan
	target := make(map[*ast.CallExpr]types.Object)
	var appends []*ast.CallExpr
	bind := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			return
		}
		v, ok := info.ObjectOf(id).(*types.Var)
		if !ok || v.Pkg() == nil || v.Parent() == v.Pkg().Scope() {
			return
		}
		plan := false
		switch rhs := ast.Unparen(rhs).(type) {
		case *ast.CallExpr:
			plan = isBuiltin(info, rhs, "make") && len(rhs.Args) == 3
			if isBuiltin(info, rhs, "append") {
				target[rhs] = v
			}
		case *ast.SliceExpr:
			lit, ok := ast.Unparen(rhs.High).(*ast.BasicLit)
			plan = ok && lit.Value == "0" && rhs.Low == nil && rhs.Max == nil && rootObj(info, rhs.X) == v
		}
		if _, seen := planned[v]; plan && !seen {
			planned[v] = rhs.Pos()
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					bind(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			for i := range min(len(n.Names), len(n.Values)) {
				bind(n.Names[i], n.Values[i])
			}
		case *ast.CallExpr:
			if isBuiltin(info, n, "append") && len(n.Args) > 0 {
				appends = append(appends, n)
			}
		}
		return true
	})
	var out []*ast.CallExpr
	for _, call := range appends {
		root := rootObj(info, call.Args[0])
		if def, ok := planned[root]; !ok || def > call.Pos() || target[call] != root {
			out = append(out, call)
		}
	}
	return out
}

// isBuiltin reports whether call calls the named builtin function.
func isBuiltin(info *types.Info, call *ast.CallExpr, name string) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	_, ok = info.Uses[id].(*types.Builtin)
	return ok
}

// dispatch names a call that goes through an interface method or a
// function value, and returns "" for a static call, a conversion, a
// builtin or a function literal invoked in place.
func dispatch(info *types.Info, call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.FuncLit:
		return ""
	case *ast.SelectorExpr:
		if s, ok := info.Selections[fun]; ok && s.Kind() == types.MethodVal && types.IsInterface(s.Recv()) {
			return "interface method call " + fun.Sel.Name
		}
	}
	if tv := info.Types[call.Fun]; tv.IsType() || tv.IsBuiltin() || tv.Type == nil || calleeFunc(info, call) != nil {
		return ""
	}
	if _, ok := info.TypeOf(call.Fun).Underlying().(*types.Signature); ok {
		return "indirect call through function value"
	}
	return ""
}
