package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// WaitGroupCapture enforces the one rule of the worker-pool discipline
// (runctl.Pool.Each, rs.EncodeParallel) that
// nothing else reports: a goroutine launched inside a loop must not
// write to a variable declared outside the loop without holding a lock —
// the shared-accumulator race. Writing to distinct elements of a
// pre-allocated slice (slots[i] = …) is the blessed pattern and is not
// flagged; direct writes (sum += x, done++) are, unless the goroutine
// body acquires a mutex.
//
// Capturing the loop variable itself is not a hazard at this module's
// language version (per-iteration variables since Go 1.22), and wg.Add
// inside the spawned goroutine is goleak's finding.
var WaitGroupCapture = &Analyzer{
	Name: "waitgroupcapture",
	Doc:  "flag worker-pool loops whose goroutines race on a shared accumulator",
	Run:  runWaitGroupCapture,
}

func runWaitGroupCapture(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch loop := n.(type) {
			case *ast.ForStmt:
				checkLoopGoroutines(pass, loop.Pos(), loop.Body)
			case *ast.RangeStmt:
				checkLoopGoroutines(pass, loop.Pos(), loop.Body)
			}
			return true
		})
	}
	return nil
}

// checkLoopGoroutines inspects go statements directly inside one loop
// body (not nested inside further function literals).
func checkLoopGoroutines(pass *Pass, loopPos token.Pos, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // a nested closure is not "launched by this loop"
		}
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		lit, ok := g.Call.Fun.(*ast.FuncLit)
		if !ok || containsLockCall(lit.Body) {
			return true
		}
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					reportSharedWrite(pass, lhs, lit, loopPos)
				}
			case *ast.IncDecStmt:
				reportSharedWrite(pass, n.X, lit, loopPos)
			}
			return true
		})
		return true
	})
}

// reportSharedWrite flags a direct assignment to a variable declared
// before the loop, performed inside the goroutine without locking.
func reportSharedWrite(pass *Pass, lhs ast.Expr, lit *ast.FuncLit, loopPos token.Pos) {
	id, ok := lhs.(*ast.Ident)
	if !ok {
		return // element/field writes are the per-slot pattern
	}
	v, ok := pass.Info.Uses[id].(*types.Var)
	if !ok || v.IsField() {
		return
	}
	// Declared inside the goroutine: private. Declared inside the loop
	// body but outside the goroutine: per-iteration, racy only against
	// this one goroutine — still shared, but the common benign case is
	// a per-iteration temp; we flag only pre-loop declarations, which
	// are shared across every worker.
	if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
		return
	}
	if v.Pos() >= loopPos {
		return
	}
	if _, isChan := v.Type().Underlying().(*types.Chan); isChan {
		return
	}
	pass.Report(id.Pos(),
		"goroutine writes shared accumulator %q without synchronization; use per-worker slots or a mutex",
		id.Name)
}
