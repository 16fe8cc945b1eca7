package lint

import (
	"go/ast"
	"go/types"
)

// isRandRandPtr reports whether t is *math/rand.Rand (or v2's *Rand).
func isRandRandPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != "Rand" || obj.Pkg() == nil {
		return false
	}
	p := obj.Pkg().Path()
	return p == "math/rand" || p == "math/rand/v2"
}

// isMutex reports whether t is sync.Mutex or sync.RWMutex.
func isMutex(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// containsLockCall reports whether the subtree contains a call to a
// method named Lock or RLock — the heuristic for "this body acquires a
// mutex before touching shared state".
func containsLockCall(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if sel.Sel.Name == "Lock" || sel.Sel.Name == "RLock" {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// isFloat reports whether t's underlying type is a floating-point
// basic type (including untyped float constants).
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	if !ok {
		return false
	}
	return b.Info()&types.IsFloat != 0
}

// isIntegerType reports whether t's underlying type is an integer.
func isIntegerType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// sameSimpleExpr reports structural equality of two side-effect-free
// expressions built from identifiers, selectors, parens and indexing.
// Used to recognize the x != x NaN test.
func sameSimpleExpr(a, b ast.Expr) bool {
	switch a := a.(type) {
	case *ast.Ident:
		b, ok := b.(*ast.Ident)
		return ok && a.Name == b.Name
	case *ast.SelectorExpr:
		b, ok := b.(*ast.SelectorExpr)
		return ok && a.Sel.Name == b.Sel.Name && sameSimpleExpr(a.X, b.X)
	case *ast.IndexExpr:
		b, ok := b.(*ast.IndexExpr)
		return ok && sameSimpleExpr(a.X, b.X) && sameSimpleExpr(a.Index, b.Index)
	case *ast.ParenExpr:
		return sameSimpleExpr(a.X, b)
	}
	if p, ok := b.(*ast.ParenExpr); ok {
		return sameSimpleExpr(a, p.X)
	}
	return false
}

// receiverName returns the receiver identifier name of a method
// declaration, or "" for functions and anonymous receivers.
func receiverName(decl *ast.FuncDecl) string {
	if decl.Recv == nil || len(decl.Recv.List) == 0 || len(decl.Recv.List[0].Names) == 0 {
		return ""
	}
	return decl.Recv.List[0].Names[0].Name
}

// receiverBaseType resolves the named type a method is declared on,
// unwrapping one pointer.
func receiverBaseType(info *types.Info, decl *ast.FuncDecl) *types.Named {
	if decl.Recv == nil || len(decl.Recv.List) == 0 {
		return nil
	}
	t := info.TypeOf(decl.Recv.List[0].Type)
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// isLibraryPackage reports whether the package is library code (not a
// main package); analyzers about API discipline skip binaries.
func isLibraryPackage(pkg *types.Package) bool {
	return pkg.Name() != "main"
}
