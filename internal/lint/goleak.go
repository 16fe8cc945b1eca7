package lint

import (
	"go/ast"
	"go/types"
)

// GoLeak requires every `go` statement to have a provable lifecycle:
// someone must be able to join the goroutine or tell it to stop. Three
// disciplines satisfy the analyzer:
//
//   - WaitGroup pairing: wg.Add(n) before the go statement, with
//     wg.Done() on the same WaitGroup reference inside the goroutine
//     body (including inside its deferred closures, the runctl.Pool
//     idiom). Add inside the goroutine is the classic Add-after-Wait
//     race and is a separate finding.
//   - Cancellation: the goroutine body (or a named callee, followed
//     transitively through module functions) blocks on a channel
//     receive — <-ctx.Done() in a select, a for-range over a work
//     channel, a quit channel — or polls ctx.Err(). A goroutine that
//     listens can be told to exit.
//   - Channel join: the goroutine sends on (or closes) a channel that
//     the spawning function receives from after the go statement; the
//     receive is the join point.
//
// A goroutine with none of the three outlives any caller's ability to
// wait for it or stop it — a leak under repeated calls, and the reason
// barego exists. goleak extends that lexical check into dataflow. The
// escape hatch for intentionally detached goroutines is an explicit
// //lint:allow goleak with the reviewed reason.
var GoLeak = &Analyzer{
	Name: "goleak",
	Doc:  "require a provable join or cancel path (WaitGroup pairing, context/channel cancel, or channel join) for every go statement",
	Run:  runGoLeak,
}

func runGoLeak(pass *Pass) error {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkGoStmts(pass, fd.Body)
		}
	}
	return nil
}

// checkGoStmts examines every go statement whose innermost enclosing
// function body is `body` (literals recurse with their own body).
func checkGoStmts(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			checkGoStmts(pass, lit.Body)
			return false
		}
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
			reportAddInsideGoroutine(pass, lit)
			if wgPaired(pass, body, g, lit.Body) ||
				hasCancelPath(pass, lit.Body, 0) ||
				channelJoined(pass, body, g, lit.Body) {
				return true
			}
			pass.Report(g.Pos(),
				"goroutine has no provable join or cancel path (no WaitGroup Add/Done pairing, no channel/context receive, no channel join); callers cannot wait for it or stop it")
			return true
		}
		// go f(...): follow the named callee's body for Done / cancel.
		if callee := calleeFunc(pass.Info, g.Call); callee != nil {
			if site := pass.Facts.decls[callee]; site != nil && site.decl.Body != nil {
				if wgPaired(pass, body, g, site.decl.Body) ||
					hasCancelPath(pass, site.decl.Body, 0) {
					return true
				}
			}
		}
		pass.Report(g.Pos(),
			"goroutine has no provable join or cancel path; callers cannot wait for it or stop it")
		return true
	})
}

// reportAddInsideGoroutine flags wg.Add called inside the spawned body
// on a WaitGroup declared outside it: the spawner may already be in
// Wait when the Add runs (Add-after-Wait race). Add must happen before
// the go statement.
func reportAddInsideGoroutine(pass *Pass, lit *ast.FuncLit) {
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		ref, ok := wgCall(pass.Info, call, "Add")
		if !ok {
			return true
		}
		if v, ok := ref.obj.(*types.Var); ok &&
			v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return true // the goroutine's own WaitGroup: private
		}
		pass.Report(call.Pos(),
			"%s.Add inside the spawned goroutine races a concurrent Wait (Add-after-Wait); call Add before the go statement",
			ref.obj.Name()+ref.path)
		return true
	})
}

// wgPaired reports the WaitGroup discipline: Add on some reference
// before the go statement (outside the spawned body), Done on the same
// reference inside the spawned body — including inside its nested
// deferred closures, where runctl.Pool puts it.
func wgPaired(pass *Pass, encl *ast.BlockStmt, g *ast.GoStmt, spawned *ast.BlockStmt) bool {
	added := make(map[sliceRef]bool)
	ast.Inspect(encl, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if n.Pos() >= g.Pos() {
			return n.Pos() < g.End() // skip the go statement's own subtree
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if ref, ok := wgCall(pass.Info, call, "Add"); ok {
				added[ref] = true
			}
		}
		return true
	})
	if len(added) == 0 {
		return false
	}
	done := false
	ast.Inspect(spawned, func(n ast.Node) bool {
		if done {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if ref, ok := wgCall(pass.Info, call, "Done"); ok && added[ref] {
				done = true
			}
		}
		return true
	})
	return done
}

// A sliceRef names a reference by a variable, optionally extended by a
// chain of field selections; the zero path means the object itself. It
// identifies a WaitGroup or a channel.
type sliceRef struct {
	obj  types.Object
	path string // "" or ".field" chains, e.g. ".wg"
}

// resolveRef resolves e to a sliceRef when e is an identifier or a
// pure field-selection chain rooted at one.
func resolveRef(info *types.Info, e ast.Expr) (sliceRef, bool) {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := info.ObjectOf(x)
		if _, ok := obj.(*types.Var); ok {
			return sliceRef{obj: obj}, true
		}
	case *ast.SelectorExpr:
		sel, ok := info.Selections[x]
		if !ok || sel.Kind() != types.FieldVal {
			return sliceRef{}, false
		}
		base, ok := resolveRef(info, x.X)
		if !ok {
			return sliceRef{}, false
		}
		return sliceRef{obj: base.obj, path: base.path + "." + x.Sel.Name}, true
	}
	return sliceRef{}, false
}

// wgCall matches ref.<method>() on a sync.WaitGroup and resolves the
// receiver reference.
func wgCall(info *types.Info, call *ast.CallExpr, method string) (sliceRef, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != method {
		return sliceRef{}, false
	}
	t := info.TypeOf(sel.X)
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return sliceRef{}, false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" || obj.Name() != "WaitGroup" {
		return sliceRef{}, false
	}
	return resolveRef(info, sel.X)
}

// hasCancelPath reports whether the body blocks on or polls a stop
// signal: any channel receive (<-ctx.Done(), quit channels, work
// channels via range), or a ctx.Err() poll. Named module callees are
// followed transitively to a small depth — the signal may live one
// helper down.
func hasCancelPath(pass *Pass, body *ast.BlockStmt, depth int) bool {
	if body == nil || depth > 3 {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				found = true
			}
		case *ast.RangeStmt:
			if t := pass.Info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					found = true
				}
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Err" {
				if t := pass.Info.TypeOf(sel.X); t != nil && isContextType(t) {
					found = true
					return false
				}
			}
			if callee := calleeFunc(pass.Info, n); callee != nil {
				if site := pass.Facts.decls[callee]; site != nil {
					if hasCancelPath(pass, site.decl.Body, depth+1) {
						found = true
					}
				}
			}
		}
		return !found
	})
	return found
}

// channelJoined reports the channel-join discipline: the spawned body
// sends on (or closes) a channel reference, and the enclosing function
// receives from the same reference after the go statement.
func channelJoined(pass *Pass, encl *ast.BlockStmt, g *ast.GoStmt, spawned *ast.BlockStmt) bool {
	sent := make(map[sliceRef]bool)
	ast.Inspect(spawned, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			if ref, ok := resolveRef(pass.Info, n.Chan); ok {
				sent[ref] = true
			}
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "close" && len(n.Args) == 1 {
				if ref, ok := resolveRef(pass.Info, n.Args[0]); ok {
					sent[ref] = true
				}
			}
		}
		return true
	})
	if len(sent) == 0 {
		return false
	}
	joined := false
	ast.Inspect(encl, func(n ast.Node) bool {
		if joined {
			return false
		}
		if n == nil || n.End() <= g.End() {
			return true
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				if ref, ok := resolveRef(pass.Info, n.X); ok && sent[ref] {
					joined = true
				}
			}
		case *ast.RangeStmt:
			if ref, ok := resolveRef(pass.Info, n.X); ok && sent[ref] {
				joined = true
			}
		}
		return !joined
	})
	return joined
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}
