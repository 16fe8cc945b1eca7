package lint

import (
	"go/ast"
	"go/types"
)

// SharedRNG enforces the two rules that keep *rand.Rand values
// data-race-free and replay-deterministic:
//
//  1. A struct that pairs a mutex field with a *rand.Rand field has
//     declared "this RNG is shared between goroutines" — so every
//     method that touches the RNG field must acquire a lock.
//
//  2. A goroutine body (go func literal) must not capture a *rand.Rand
//     declared outside it. Even when every access happens to be
//     serialized today, a captured RNG consumes draws in scheduling
//     order, so results stop being a function of the seed. Each worker
//     must own a private RNG created inside the goroutine (or derived
//     per worker with mathx/rngsplit.Derive).
var SharedRNG = &Analyzer{
	Name: "sharedrng",
	Doc:  "require locking around mutex-paired *rand.Rand fields and forbid goroutine-captured RNGs",
	Run:  runSharedRNG,
}

func runSharedRNG(pass *Pass) error {
	guarded := collectGuardedRNGStructs(pass)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkGuardedAccess(pass, fd, guarded)
		}
		checkGoroutineCapture(pass, f)
	}
	return nil
}

// collectGuardedRNGStructs finds named struct types declaring both a
// mutex field and at least one *rand.Rand field, returning the RNG
// field objects per type.
func collectGuardedRNGStructs(pass *Pass) map[*types.Named][]*types.Var {
	guarded := make(map[*types.Named][]*types.Var)
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		st, ok := named.Underlying().(*types.Struct)
		if !ok {
			continue
		}
		var rngs []*types.Var
		hasMutex := false
		for i := 0; i < st.NumFields(); i++ {
			fld := st.Field(i)
			if isRandRandPtr(fld.Type()) {
				rngs = append(rngs, fld)
			}
			if isMutex(fld.Type()) {
				hasMutex = true
			}
		}
		if hasMutex && len(rngs) > 0 {
			guarded[named] = rngs
		}
	}
	return guarded
}

// checkGuardedAccess flags methods of guarded structs that touch an RNG
// field without any lock acquisition in the method body.
func checkGuardedAccess(pass *Pass, fd *ast.FuncDecl, guarded map[*types.Named][]*types.Var) {
	named := receiverBaseType(pass.Info, fd)
	if named == nil {
		return
	}
	rngs := guarded[named]
	if rngs == nil {
		return
	}
	isRNGField := func(v *types.Var) bool {
		for _, r := range rngs {
			if r == v {
				return true
			}
		}
		return false
	}
	locks := containsLockCall(fd.Body)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		selection, ok := pass.Info.Selections[sel]
		if !ok || selection.Kind() != types.FieldVal {
			return true
		}
		fld, ok := selection.Obj().(*types.Var)
		if !ok || !isRNGField(fld) {
			return true
		}
		if !locks {
			pass.Report(sel.Pos(),
				"method %s touches mutex-guarded RNG field %s without acquiring the lock",
				fd.Name.Name, fld.Name())
		}
		return true
	})
}

// checkGoroutineCapture flags go func literals that reference a
// *rand.Rand variable declared outside the literal.
func checkGoroutineCapture(pass *Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		lit, ok := g.Call.Fun.(*ast.FuncLit)
		if !ok {
			return true
		}
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			v, ok := pass.Info.Uses[id].(*types.Var)
			if !ok || !isRandRandPtr(v.Type()) || v.IsField() {
				return true
			}
			// Declared inside the literal (including its parameters)
			// means worker-private: fine.
			if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
				return true
			}
			pass.Report(id.Pos(),
				"goroutine captures shared *rand.Rand %q; create a per-worker RNG inside the goroutine (e.g. rngsplit.Derive)",
				id.Name)
			return true
		})
		return true
	})
}
