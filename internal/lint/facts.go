package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"slices"
	"sort"
)

// Facts is the whole-program fact store. Where the
// first generation of this file computed taint summaries lazily with an
// optimistic recursion cut-off, the store now evaluates eagerly: it
// builds the module call graph (callgraph.go), condenses it into
// strongly connected components, and walks the condensation bottom-up
// so every summary is computed after the summaries it depends on.
// Within a component (recursion, mutual recursion) the member
// summaries iterate to a fixed point; every lattice involved is finite
// with monotone transfer functions, so the iteration terminates and is
// exact where the lazy cut-off used to be merely optimistic.
//
// Two summaries are maintained per function:
//
//   - taint (funcSummary): which taint kinds each result carries and
//     which parameters flow into it — the engine behind maporder and
//     walltime;
//   - mayFail (bool): whether the function can return a non-nil error —
//     the engine behind errflow. A function that returns only literal
//     nil errors (directly or through callees, including recursive
//     ones) is proven infallible and its discarded errors are not
//     findings.
type Facts struct {
	decls map[*types.Func]*declSite
	fset  *token.FileSet
	// hotIdx and coldIdx merge //mlec:hot and //mlec:cold directive
	// lines across packages; hot/cold/hotVia are the propagated
	// hotness facts (see hot.go).
	hotIdx  posIndex
	coldIdx posIndex
	hot     map[*types.Func]bool
	cold    map[*types.Func]bool
	hotVia  map[*types.Func]*types.Func

	summaries map[*types.Func]*funcSummary
	mayFail   map[*types.Func]bool

	// compiled holds the compiler's heap, bounds-check and inliner
	// verdicts for the hot packages (see oracle.go); Run fills it when
	// hotalloc, hotbce or hotinline is selected.
	compiled *compiled

	// sccCount and maxSCCIters are recorded for tests and the
	// benchmark: how big the condensation was and the deepest
	// fixed-point iteration any component needed.
	sccCount    int
	maxSCCIters int
}

// declSite pairs a function declaration with the package whose
// types.Info type-checked it.
type declSite struct {
	decl *ast.FuncDecl
	pkg  *Package
}

// funcSummary is one function's taint behaviour.
type funcSummary struct {
	// results[i] describes result i: kinds the function introduces
	// itself, params the mask of parameters whose taint flows there.
	results []taintVal
	// recvFlows reports that the receiver's taint flows into at least
	// one result.
	recvFlows bool
}

// receiver flow is tracked with the top param bit, far above any real
// Go parameter list this module will see.
const recvBit = 1 << 31

// sccIterationCap bounds the fixed-point loop per component. The
// lattices are finite and the transfers monotone, so the bound is never
// reached by construction; it exists so a future non-monotone transfer
// bug degrades to imprecision instead of a hang.
const sccIterationCap = 64

// NewFacts indexes every function declaration reachable through the
// packages' loader (analyzed packages plus their intra-module
// dependencies) and eagerly computes all summaries bottom-up over the
// call graph's SCC condensation.
func NewFacts(pkgs []*Package) *Facts {
	f := &Facts{
		decls:     make(map[*types.Func]*declSite),
		hotIdx:    make(posIndex),
		coldIdx:   make(posIndex),
		summaries: make(map[*types.Func]*funcSummary),
		mayFail:   make(map[*types.Func]bool),
	}
	seen := make(map[*Package]bool)
	index := func(p *Package) {
		if p == nil || seen[p] {
			return
		}
		seen[p] = true
		if f.fset == nil {
			f.fset = p.Fset
		}
		for _, file := range p.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if fn, ok := p.Info.Defs[fd.Name].(*types.Func); ok {
					f.decls[fn] = &declSite{decl: fd, pkg: p}
				}
			}
		}
		maps.Copy(f.hotIdx, p.hots)
		maps.Copy(f.coldIdx, p.colds)
	}
	for _, p := range pkgs {
		index(p)
		if p.loader != nil {
			paths := make([]string, 0, len(p.loader.pkgs))
			for path := range p.loader.pkgs {
				paths = append(paths, path)
			}
			sort.Strings(paths)
			for _, path := range paths {
				index(p.loader.pkgs[path])
			}
		}
	}
	g := buildCallGraph(f.decls)
	f.computeAll(g)
	f.computeHot(g)
	return f
}

// computeAll walks the condensation bottom-up. Singleton components
// converge in one pass (their callees are final); cyclic components
// start from the optimistic bottom (empty summaries, mayFail=false) and
// iterate until nothing changes.
func (f *Facts) computeAll(g *callGraph) {
	f.sccCount = len(g.sccs)
	for _, scc := range g.sccs {
		for _, n := range scc {
			f.summaries[n.fn] = &funcSummary{results: make([]taintVal, resultCount(n.fn))}
			f.mayFail[n.fn] = false
		}
		for iter := 1; iter <= sccIterationCap; iter++ {
			changed := false
			for _, n := range scc {
				if sum := f.computeTaint(n); !sum.equal(f.summaries[n.fn]) {
					f.summaries[n.fn] = sum
					changed = true
				}
				if mf := f.computeMayFail(n); mf != f.mayFail[n.fn] {
					f.mayFail[n.fn] = mf
					changed = true
				}
			}
			if iter > f.maxSCCIters {
				f.maxSCCIters = iter
			}
			if !changed {
				break
			}
		}
	}
}

func resultCount(fn *types.Func) int {
	return fn.Type().(*types.Signature).Results().Len()
}

func (s *funcSummary) equal(o *funcSummary) bool {
	return s.recvFlows == o.recvFlows && slices.Equal(s.results, o.results)
}

// computeTaint runs the taint engine over one declaration in summary
// mode (parameters seeded with their flow bits).
func (f *Facts) computeTaint(n *cgNode) *funcSummary {
	fd := n.site.decl
	info := n.site.pkg.Info
	sum := &funcSummary{results: make([]taintVal, resultCount(n.fn))}
	if fd.Body == nil {
		return sum
	}

	params := make(map[types.Object]taintVal)
	bit := 0
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if bit < 31 {
				params[info.Defs[name]] = taintVal{params: 1 << bit}
			}
			bit++
		}
	}
	if fd.Recv != nil && len(fd.Recv.List) == 1 && len(fd.Recv.List[0].Names) == 1 {
		params[info.Defs[fd.Recv.List[0].Names[0]]] = taintVal{params: recvBit}
	}

	ft := analyzeBody(info, f, fd.Body, params, resultObjects(info, fd.Type))
	for i, r := range ft.results {
		if r.params&recvBit != 0 {
			sum.recvFlows = true
			r.params &^= recvBit
		}
		sum.results[i] = r
	}
	return sum
}

// computeMayFail decides whether the function can return a non-nil
// error. Only the error slot of each return statement matters: a
// literal nil contributes nothing, a tail call to a summarized module
// function contributes that callee's current fact, anything else is
// conservatively fallible. Bare returns of a named error are
// conservative too — proving the named variable nil on every path is
// the flow engines' job, not worth duplicating here.
func (f *Facts) computeMayFail(n *cgNode) bool {
	sig := n.fn.Type().(*types.Signature)
	res := sig.Results()
	if res.Len() == 0 || !isErrorType(res.At(res.Len()-1).Type()) {
		return false
	}
	fd := n.site.decl
	if fd.Body == nil {
		return true
	}
	info := n.site.pkg.Info
	errIdx := res.Len() - 1
	fails := false
	ast.Inspect(fd.Body, func(node ast.Node) bool {
		if fails {
			return false
		}
		switch node := node.(type) {
		case *ast.FuncLit:
			return false // closure returns are the closure's
		case *ast.ReturnStmt:
			fails = f.returnMayFail(info, node, errIdx, res.Len())
			return false
		}
		return true
	})
	return fails
}

// returnMayFail inspects one return statement's error slot.
func (f *Facts) returnMayFail(info *types.Info, ret *ast.ReturnStmt, errIdx, nres int) bool {
	if len(ret.Results) == 0 {
		return true // bare return of a named error: conservative
	}
	if len(ret.Results) == 1 && nres > 1 {
		// return f(...): the callee's error fact is the answer.
		if call, ok := ast.Unparen(ret.Results[0]).(*ast.CallExpr); ok {
			return f.callMayFail(info, call)
		}
		return true
	}
	if errIdx >= len(ret.Results) {
		return true
	}
	e := ast.Unparen(ret.Results[errIdx])
	if tv, ok := info.Types[e]; ok && tv.IsNil() {
		return false
	}
	if call, ok := e.(*ast.CallExpr); ok {
		return f.callMayFail(info, call)
	}
	return true
}

// callMayFail resolves a call in error position: module callees use
// their (current) fact, everything else is fallible.
func (f *Facts) callMayFail(info *types.Info, call *ast.CallExpr) bool {
	fn := calleeFunc(info, call)
	if fn == nil {
		return true
	}
	if _, known := f.decls[fn]; !known {
		return true
	}
	return f.mayFail[fn]
}

// summaryOf returns the function's eagerly-computed taint summary, or
// nil when the function's source is outside the module.
func (f *Facts) summaryOf(fn *types.Func) *funcSummary {
	return f.summaries[fn]
}

// MayFail reports whether a module function can return a non-nil error;
// known reports whether the function is summarized at all (false for
// stdlib and indirect callees).
func (f *Facts) MayFail(fn *types.Func) (mayFail, known bool) {
	if _, ok := f.decls[fn]; !ok {
		return true, false
	}
	return f.mayFail[fn], true
}

// isErrorType reports whether t is the built-in error interface.
func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "error" && obj.Pkg() == nil
}

// resultObjects returns one entry per result of the function type: the
// named result's object, nil for an unnamed result.
func resultObjects(info *types.Info, ft *ast.FuncType) []types.Object {
	if ft.Results == nil {
		return nil
	}
	var objs []types.Object
	for _, field := range ft.Results.List {
		if len(field.Names) == 0 {
			objs = append(objs, nil)
		}
		for _, name := range field.Names {
			objs = append(objs, info.Defs[name])
		}
	}
	return objs
}

// FuncTaint runs the taint engine over a function declaration's body in
// analysis mode (no parameter seeding) and returns the per-expression
// taints. Analyzers call this once per declaration and then walk the
// body looking at sinks.
func (p *Pass) FuncTaint(fd *ast.FuncDecl) *FuncTaint {
	return analyzeBody(p.Info, p.Facts, fd.Body, nil, resultObjects(p.Info, fd.Type))
}

// FuncLitTaint is FuncTaint for a function literal. Captured variables
// start untainted (closure environments are not modeled; the engine is
// intraprocedural).
func (p *Pass) FuncLitTaint(lit *ast.FuncLit) *FuncTaint {
	return analyzeBody(p.Info, p.Facts, lit.Body, nil, resultObjects(p.Info, lit.Type))
}
