package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// NakedPanic flags panic calls in library packages that are reachable
// (through the package-internal call graph) from exported functions or
// methods.
//
// A panic that escapes an exported entry point turns a recoverable
// input problem into a process crash for every caller; library
// validation belongs in returned errors. Two idioms are exempt:
//
//   - functions whose name starts with "Must": panicking on error is
//     their documented contract (placement.MustNewLayout, failure.MustExponentialAFR);
//   - sites carrying //lint:allow nakedpanic <reason> — reserved for
//     true invariant violations (corrupted internal state, kernel
//     precondition breaches analogous to out-of-bounds indexing) where
//     an error return would only smear the bug into later state.
var NakedPanic = &Analyzer{
	Name: "nakedpanic",
	Doc:  "flag panics reachable from exported entry points; return errors instead",
	Run:  runNakedPanic,
}

func runNakedPanic(pass *Pass) error {
	if !isLibraryPackage(pass.Pkg) {
		return nil
	}

	// Collect this package's function declarations keyed by object.
	decls := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if obj, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
				decls[obj] = fd
			}
		}
	}

	// Roots: exported functions, and exported methods of exported
	// types. Everything a root references (call or function value)
	// within the package is reachable.
	reachable := make(map[*types.Func]bool)
	var frontier []*types.Func
	for obj, fd := range decls {
		if !obj.Exported() {
			continue
		}
		if named := receiverBaseType(pass.Info, fd); named != nil && !named.Obj().Exported() {
			continue
		}
		reachable[obj] = true
		frontier = append(frontier, obj)
	}
	for len(frontier) > 0 {
		obj := frontier[len(frontier)-1]
		frontier = frontier[:len(frontier)-1]
		fd := decls[obj]
		if fd == nil {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			callee, ok := pass.Info.Uses[id].(*types.Func)
			if !ok || callee.Pkg() != pass.Pkg || reachable[callee] {
				return true
			}
			if _, has := decls[callee]; has {
				reachable[callee] = true
				frontier = append(frontier, callee)
			}
			return true
		})
	}

	for obj, fd := range decls {
		if !reachable[obj] {
			continue
		}
		if strings.HasPrefix(obj.Name(), "Must") {
			continue
		}
		name := obj.Name()
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := call.Fun.(*ast.Ident)
			if !ok || id.Name != "panic" {
				return true
			}
			if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); !isBuiltin {
				return true
			}
			pass.Report(call.Pos(),
				"panic reachable from exported API via %s; return an error (or allowlist a true invariant)",
				name)
			return true
		})
	}
	return nil
}
