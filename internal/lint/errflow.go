package lint

import (
	"go/ast"
	"go/types"
)

// ErrFlow is the analyzer for discarded errors on simulator
// paths. A Monte-Carlo campaign that drops an error keeps running with
// a silently-absent contribution — the estimate stays plausible and the
// confidence interval lies. The analyzer flags a call whose error
// result is discarded (an expression statement, go/defer, or a blank
// assignment) when the callee is a module function the eager summaries
// prove can actually return a non-nil error.
//
// The interprocedural part is what makes the check usable: a callee
// that returns only literal nil errors — directly, through wrappers,
// or through (mutual) recursion resolved by the SCC fixed point — is
// infallible, and discarding its error is not a finding. External
// callees (fmt.Fprintf and friends) are out of scope: their error
// contracts are the standard library's business, not this module's.
var ErrFlow = &Analyzer{
	Name: "errflow",
	Doc:  "forbid discarding the error result of module functions that can actually fail",
	Run:  runErrFlow,
}

func runErrFlow(pass *Pass) error {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkErrFlowBody(pass, fd.Body)
		}
	}
	return nil
}

func checkErrFlowBody(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ExprStmt:
			if call, ok := n.X.(*ast.CallExpr); ok {
				reportDiscardedError(pass, call, "statement discards")
			}
		case *ast.GoStmt:
			reportDiscardedError(pass, n.Call, "goroutine discards")
		case *ast.DeferStmt:
			reportDiscardedError(pass, n.Call, "defer discards")
		case *ast.AssignStmt:
			checkErrFlowAssign(pass, n)
		}
		return true
	})
}

// checkErrFlowAssign flags v, _ := f() where the blank sits in the
// error slot.
func checkErrFlowAssign(pass *Pass, a *ast.AssignStmt) {
	if len(a.Rhs) != 1 || len(a.Lhs) < 1 {
		return
	}
	call, ok := a.Rhs[0].(*ast.CallExpr)
	if !ok {
		return
	}
	fn := fallibleModuleCallee(pass, call)
	if fn == nil {
		return
	}
	errIdx := fn.Type().(*types.Signature).Results().Len() - 1
	if errIdx >= len(a.Lhs) {
		return
	}
	if id, ok := a.Lhs[errIdx].(*ast.Ident); ok && id.Name == "_" {
		pass.Report(a.Lhs[errIdx].Pos(),
			"blank identifier discards the error of %s, which can fail; handle or propagate it", fn.Name())
	}
}

// reportDiscardedError flags a call used for effect only whose callee
// can return a non-nil error.
func reportDiscardedError(pass *Pass, call *ast.CallExpr, how string) {
	fn := fallibleModuleCallee(pass, call)
	if fn == nil {
		return
	}
	pass.Report(call.Pos(),
		"%s the error of %s, which can fail; handle or propagate it", how, fn.Name())
}

// fallibleModuleCallee resolves a direct call to a module function
// whose last result is an error the fact store proves may be non-nil.
func fallibleModuleCallee(pass *Pass, call *ast.CallExpr) *types.Func {
	fn := calleeFunc(pass.Info, call)
	if fn == nil {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return nil
	}
	if !isErrorType(sig.Results().At(sig.Results().Len() - 1).Type()) {
		return nil
	}
	mayFail, known := pass.Facts.MayFail(fn)
	if !known || !mayFail {
		return nil
	}
	return fn
}
