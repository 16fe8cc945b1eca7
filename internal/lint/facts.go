package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"slices"
	"sort"
)

// Facts is the whole-program fact store — the probflow layer. Where the
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
// Three summaries are maintained per function:
//
//   - taint (funcSummary): which taint kinds each result carries and
//     which parameters flow into it — the engine behind maporder,
//     walltime and ctxpoll;
//   - domain (domainSummary): the numeric Domain of each result — the
//     engine behind probmix and cancel;
//   - mayFail (bool): whether the function can return a non-nil error —
//     the engine behind errflow. A function that returns only literal
//     nil errors (directly or through callees, including recursive
//     ones) is proven infallible and its discarded errors are not
//     findings.
type Facts struct {
	decls map[*types.Func]*declSite
	fset  *token.FileSet
	units unitIndex
	// hotIdx and coldIdx merge //mlec:hot and //mlec:cold directive
	// lines across packages; hot/cold/hotVia are the propagated
	// hotness facts (see hot.go).
	hotIdx  posIndex
	coldIdx posIndex
	hot     map[*types.Func]bool
	cold    map[*types.Func]bool
	hotVia  map[*types.Func]*types.Func
	// allocates holds the per-function allocation summaries: whether a
	// steady-state heap allocation is reachable through the function's
	// own body or a direct callee (see escape.go), and siteCache the
	// memoized escape-engine classification behind them.
	allocates map[*types.Func]bool
	siteCache map[*types.Func][]AllocSite

	summaries map[*types.Func]*funcSummary
	domains   map[*types.Func]*domainSummary
	mayFail   map[*types.Func]bool

	// guardedFields and guardedVars merge the resolved //mlec:guardedby
	// annotations across packages; locks holds the per-function lock
	// summaries (see lockstate.go).
	guardedFields map[*types.Var]*types.Var
	guardedVars   map[*types.Var]*types.Var
	locks         map[*types.Func]*lockSummary

	// compiled holds the compiler's bounds-check and inliner verdicts
	// for the hot packages (see oracle.go); Run fills it when hotbce or
	// hotinline is selected.
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

// domainSummary is one function's numeric-domain behaviour: the Domain
// of each result slot.
type domainSummary struct {
	results []DomVal
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
		units:     make(unitIndex),
		hotIdx:    make(posIndex),
		coldIdx:   make(posIndex),
		allocates: make(map[*types.Func]bool),
		summaries: make(map[*types.Func]*funcSummary),
		domains:   make(map[*types.Func]*domainSummary),
		mayFail:   make(map[*types.Func]bool),

		guardedFields: make(map[*types.Var]*types.Var),
		guardedVars:   make(map[*types.Var]*types.Var),
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
		maps.Copy(f.units, p.units)
		maps.Copy(f.hotIdx, p.hots)
		maps.Copy(f.coldIdx, p.colds)
		maps.Copy(f.guardedFields, p.guardedFields)
		maps.Copy(f.guardedVars, p.guardedVars)
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
	f.computeAllocates(g)
	f.computeLocks(g)
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
			f.domains[n.fn] = &domainSummary{results: make([]DomVal, resultCount(n.fn))}
			f.mayFail[n.fn] = false
		}
		for iter := 1; iter <= sccIterationCap; iter++ {
			changed := false
			for _, n := range scc {
				if sum := f.computeTaint(n); !sum.equal(f.summaries[n.fn]) {
					f.summaries[n.fn] = sum
					changed = true
				}
				if dom := f.computeDomains(n); !dom.equal(f.domains[n.fn]) {
					f.domains[n.fn] = dom
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

func (d *domainSummary) equal(o *domainSummary) bool {
	return slices.Equal(d.results, o.results)
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

// computeDomains runs the domain engine over one declaration with
// parameters seeded from their declarations, then fills still-unknown
// result slots from the result declarations and, for the first slot,
// the function's own name — HypergeomTail's body may end in an opaque
// accumulator, but its name says probability.
func (f *Facts) computeDomains(n *cgNode) *domainSummary {
	fd := n.site.decl
	info := n.site.pkg.Info
	nres := resultCount(n.fn)
	sum := &domainSummary{results: make([]DomVal, nres)}
	if fd.Body == nil {
		return sum
	}
	resultObjs := resultObjects(info, fd.Type)
	flow := domainFlow(info, f, fd.Body, f.paramSeeds(info, fd.Recv, fd.Type.Params), resultObjs)
	copy(sum.results, flow.results)
	for i := range sum.results {
		if sum.results[i] == (DomVal{}) && resultObjs[i] != nil {
			sum.results[i] = seedObject(f.units, f.fset, resultObjs[i])
		}
	}
	if nres > 0 && sum.results[0] == (DomVal{}) {
		sum.results[0] = f.declSeed(n.fn, fd)
	}
	// An explicit //mlec:unit annotation on the declaration is a human
	// claim and overrides inference: Choose goes through exp(logΓ) so
	// the engine sees a probability, but its result is a count.
	if nres > 0 {
		if d, ok := f.units.at(f.fset.Position(fd.Pos())); ok {
			sum.results[0] = DomVal{D: d}
		}
	}
	return sum
}

// declSeed derives the declared domain of a function's primary result:
// an //mlec:unit annotation on (or directly above) the declaration
// wins, then the name heuristic, both gated on the result being
// floating-point.
func (f *Facts) declSeed(fn *types.Func, fd *ast.FuncDecl) DomVal {
	sig := fn.Type().(*types.Signature)
	if sig.Results().Len() == 0 {
		return DomVal{}
	}
	rt := sig.Results().At(0).Type()
	if isIntegerType(rt) {
		return DomVal{D: DomCount}
	}
	if !isFloat(rt) {
		return DomVal{}
	}
	if d, ok := f.units.at(f.fset.Position(fd.Pos())); ok {
		return DomVal{D: d}
	}
	return DomVal{D: domainFromName(fn.Name())}
}

// paramSeeds maps the variables the field lists declare (a receiver, a
// parameter list; nil lists are skipped) to their declared domains.
func (f *Facts) paramSeeds(info *types.Info, lists ...*ast.FieldList) map[types.Object]DomVal {
	params := make(map[types.Object]DomVal)
	for _, list := range lists {
		if list == nil {
			continue
		}
		for _, field := range list.List {
			for _, name := range field.Names {
				obj := info.Defs[name]
				if v := seedObject(f.units, f.fset, obj); v != (DomVal{}) {
					params[obj] = v
				}
			}
		}
	}
	return params
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

// domainsOf returns the function's eagerly-computed domain summary, or
// nil when the function's source is outside the module.
func (f *Facts) domainsOf(fn *types.Func) *domainSummary {
	return f.domains[fn]
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

// FuncDomains runs the domain engine over a declaration in analysis
// mode: parameters are seeded from their declared domains so the
// recorded per-expression values reflect what the signature promises.
func (p *Pass) FuncDomains(fd *ast.FuncDecl) *FuncDomains {
	return domainFlow(p.Info, p.Facts, fd.Body,
		p.Facts.paramSeeds(p.Info, fd.Recv, fd.Type.Params), resultObjects(p.Info, fd.Type))
}

// FuncLitDomains is FuncDomains for a function literal (captured
// variables are not modeled; parameters seed from their names).
func (p *Pass) FuncLitDomains(lit *ast.FuncLit) *FuncDomains {
	return domainFlow(p.Info, p.Facts, lit.Body,
		p.Facts.paramSeeds(p.Info, lit.Type.Params), resultObjects(p.Info, lit.Type))
}
