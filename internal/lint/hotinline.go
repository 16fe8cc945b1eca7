package lint

import (
	"go/ast"
	"go/types"

	"mlec/internal/lint/cfg"
)

// HotInline flags per-iteration calls in //mlec:hot loops whose callee
// is small enough that inlining is the expected win but whose shape
// defeats the gc inliner: a defer, a closure definition, a recover, a
// go statement, a select, or a non-leaf loop (a loop that itself
// calls). For such a callee the call overhead (argument marshalling,
// frame setup, lost registerization) is comparable to the work done,
// and it is paid once per hot-loop iteration.
//
// What is NOT flagged, and why:
//
//   - Large callees (above inlineNodeBudget AST nodes): the per-call
//     overhead is amortized over the callee's own work — the gf256
//     word kernels are the canonical case, and inlining them would be
//     harmful anyway.
//   - Calls in an early-exit branch (an if/case body ending in return
//     or panic): they run at most once per loop, not per iteration.
//   - //mlec:cold callees: the annotation is the reviewed claim that
//     the call is off the steady-state path (amortized poll points).
//   - Interface-method calls: hotalloc owns dynamic dispatch.
//   - Out-of-module callees: their bodies are not loaded, and the
//     stdlib's hot-path helpers (encoding/binary, atomics) are
//     intrinsified or inlined already.
//
// Indirect calls through a function value are flagged too: they cannot
// be inlined at all, which on a hot loop deserves the same scrutiny.
// `mlecvet -compiler` cross-checks every flagged callee against the
// inliner's own `-m` verdicts, so the shape heuristics can never
// silently diverge from the real compiler.
var HotInline = &Analyzer{
	Name: "hotinline",
	Doc:  "flag hot-loop calls to small callees whose shape defeats the inliner",
	Run:  runHotInline,
}

// inlineNodeBudget separates "small helper whose call overhead
// matters" from "kernel that amortizes its own call". The gc inliner
// budget is 80 IR nodes; AST nodes run a little denser, and the point
// here is a coarse size class, not a cost model — the compiler oracle
// is the precise arbiter.
const inlineNodeBudget = 80

// inlineExtraCallCost mirrors the gc inliner's charge for a call inside
// a candidate body. It only gates the callInlinable claim, not the
// blocker findings: a two-call mutex helper (Lock + Unlock) costs
// ~130 IR units and will not inline however small its source is, so
// claiming it to the oracle would be a guaranteed disagreement.
const inlineExtraCallCost = 57

func runHotInline(pass *Pass) error {
	eachDirectHot(pass, func(fd *ast.FuncDecl, inScope func(ast.Node) bool) {
		for _, call := range loopCallExprs(fd) {
			if !inScope(call) {
				continue
			}
			if site, verdict := judgeCall(pass, call); verdict == callBad {
				pass.Report(call.Pos(), "%s", site.message(pass, fd))
			}
		}
	})
	return nil
}

// inlineSite is one suspicious call in a hot loop.
type inlineSite struct {
	call     *ast.CallExpr
	callee   *types.Func // nil for indirect calls
	indirect bool
	blocker  string
}

func (s *inlineSite) message(pass *Pass, fd *ast.FuncDecl) string {
	if s.indirect {
		return fd.Name.Name + " calls " + types.ExprString(s.call.Fun) +
			" through a function value in a hot loop; an indirect call cannot be inlined — " +
			"devirtualize it (call the function directly) or hoist the dispatch out of the loop"
	}
	return fd.Name.Name + " calls " + s.callee.Name() + " in a hot loop, but its " + s.blocker +
		" defeats the inliner despite its size; restructure the callee (hoist the blocker out) " +
		"or annotate it //mlec:cold with a rationale if the call is off the steady-state path"
}

// loopCallExprs returns the CallExprs of fd that lie in loop blocks
// and outside early-exit branches, in source order.
func loopCallExprs(fd *ast.FuncDecl) []*ast.CallExpr {
	g := cfg.Build(fd.Body)
	loops := g.LoopBlocks()

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
	seen := make(map[*ast.CallExpr]bool)
	for _, b := range g.Blocks {
		if !loops[b] {
			continue
		}
		for _, node := range b.Nodes {
			ast.Inspect(node, func(n ast.Node) bool {
				if _, ok := n.(*ast.FuncLit); ok {
					return false
				}
				if c, ok := n.(*ast.CallExpr); ok && !seen[c] && !inExit(c) {
					seen[c] = true
					calls = append(calls, c)
				}
				return true
			})
		}
	}
	return calls
}

// callVerdict is judgeCall's three-way outcome. The distinction between
// callFine and callInlinable matters only to the compiler oracle:
// callInlinable is a positive claim ("the inliner will take this small
// blocker-free callee") that `mlecvet -compiler` checks against the
// `-m` output, while callFine is a mere absence of findings.
type callVerdict int

const (
	callFine      callVerdict = iota // nothing to say
	callBad                          // flag: indirect, or shape defeats the inliner
	callInlinable                    // small in-module leaf: claim `can inline`
)

// judgeCall decides whether one hot-loop call is worth flagging.
func judgeCall(pass *Pass, call *ast.CallExpr) (inlineSite, callVerdict) {
	// Conversions and builtins are not calls.
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() {
		return inlineSite{}, callFine
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := pass.Info.ObjectOf(id).(*types.Builtin); isBuiltin {
			return inlineSite{}, callFine
		}
	}
	if _, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		// Immediately invoked literal: the inliner handles these.
		return inlineSite{}, callFine
	}

	callee := calleeFunc(pass.Info, call)
	if callee == nil {
		return inlineSite{call: call, indirect: true}, callBad
	}
	if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil {
		if types.IsInterface(sig.Recv().Type()) {
			return inlineSite{}, callFine // hotalloc's domain
		}
	}
	ds, known := pass.Facts.decls[callee]
	if !known || ds.decl.Body == nil {
		return inlineSite{}, callFine // out of module
	}
	if pass.Facts.IsCold(callee) {
		return inlineSite{}, callFine
	}
	if nodeCount(ds.decl.Body) > inlineNodeBudget {
		return inlineSite{}, callFine
	}
	blocker := inlineBlocker(ds.pkg.Info, ds.decl.Body)
	if blocker != "" {
		return inlineSite{call: call, callee: callee, blocker: blocker}, callBad
	}
	if inlineCostEstimate(ds.pkg.Info, ds.decl.Body) > inlineNodeBudget {
		// Blocker-free but call-heavy: the inliner will reject it on
		// cost, so it is neither a finding nor a claim.
		return inlineSite{}, callFine
	}
	return inlineSite{call: call, callee: callee}, callInlinable
}

// inlineCostEstimate approximates the gc inliner's cost for body: one
// unit per AST node plus the flat extra-call charge for every real call
// (conversions and builtins are free or intrinsified).
func inlineCostEstimate(info *types.Info, body *ast.BlockStmt) int {
	cost := nodeCount(body)
	ast.Inspect(body, func(n ast.Node) bool {
		if c, ok := n.(*ast.CallExpr); ok && isRealCall(info, c) {
			cost += inlineExtraCallCost
		}
		return true
	})
	return cost
}

// nodeCount sizes a body in AST nodes, the proxy for the inliner's IR
// node budget.
func nodeCount(body *ast.BlockStmt) int {
	n := 0
	ast.Inspect(body, func(ast.Node) bool {
		n++
		return true
	})
	return n
}

// inlineBlocker returns a description of the first construct in body
// that prevents the gc inliner from inlining the function, or "".
// info must be the types.Info of the package that declares the body.
func inlineBlocker(info *types.Info, body *ast.BlockStmt) string {
	blocker := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if blocker != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.DeferStmt:
			blocker = "defer"
		case *ast.GoStmt:
			blocker = "go statement"
		case *ast.SelectStmt:
			blocker = "select"
		case *ast.FuncLit:
			blocker = "closure"
			return false
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "recover" {
				if _, isBuiltin := info.ObjectOf(id).(*types.Builtin); isBuiltin {
					blocker = "recover"
				}
			}
		case *ast.ForStmt:
			if loopCalls(info, n.Body) {
				blocker = "non-leaf loop"
			}
		case *ast.RangeStmt:
			if loopCalls(info, n.Body) {
				blocker = "non-leaf loop"
			}
		}
		return true
	})
	return blocker
}

// loopCalls reports whether a loop body performs a real function call
// (conversions and length-safe builtins excluded) — the combination
// (loop + call) that keeps a small function out of the inliner's
// budget and out of leaf-function optimizations.
func loopCalls(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			found = true // a closure inside a loop is a blocker by itself
			return false
		}
		if c, ok := n.(*ast.CallExpr); ok && isRealCall(info, c) {
			found = true
			return false
		}
		return true
	})
	return found
}
