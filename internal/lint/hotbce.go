package lint

import (
	"go/ast"
	"strconv"
)

// HotBCE enforces the bounds-check discipline on the //mlec:hot
// kernels: every index or slice expression inside a loop of a hot
// function (or hot region) must be provably in bounds from the length
// facts on the path to it, so the compiler's prove pass eliminates the
// per-iteration check. The engine (bounds.go) mirrors the idioms the
// kernels use — length guards, slice-advance loops, range keys,
// `_ = s[k]` hints, byte-indexed 256-entry tables — and `mlecvet
// -compiler` cross-checks its verdicts against `-d=ssa/check_bce`.
//
// Scope is deliberately the directly annotated hot code, not the
// transitive hot set: propagation reaches simulation drivers whose
// per-event indexing is dominated by event dispatch, where a bounds
// check is noise, not cost. The annotated kernels are exactly the code
// whose per-byte loops make one check per iteration measurable.
// Sites outside loops are likewise ignored: a once-per-call check is
// not a steady-state cost.
var HotBCE = &Analyzer{
	Name: "hotbce",
	Doc:  "require provably eliminable bounds checks in //mlec:hot loops",
	Run:  runHotBCE,
}

// funcDirectHot reports whether fd itself carries the //mlec:hot
// annotation (as opposed to hotness inherited through the call graph).
func (p *Pass) funcDirectHot(fd *ast.FuncDecl) bool {
	return p.Facts.hotIdx.at(p.Fset.Position(fd.Pos())) && !p.FuncCold(fd)
}

// inStmts reports whether n lies within one of the statements.
func inStmts(n ast.Node, stmts []ast.Stmt) bool {
	for _, s := range stmts {
		if n.Pos() >= s.Pos() && n.End() <= s.End() {
			return true
		}
	}
	return false
}

// eachDirectHot calls fn for every declaration in the scope hotbce and
// hotinline sweep (and the compiler oracle cross-checks): a function
// that carries //mlec:hot itself, whole, or the //mlec:hot region
// statements of any other non-cold function. inScope reports whether a
// node of fd lies in that scope.
func eachDirectHot(pass *Pass, fn func(fd *ast.FuncDecl, inScope func(ast.Node) bool)) {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || pass.FuncCold(fd) {
				continue
			}
			if pass.funcDirectHot(fd) {
				fn(fd, func(ast.Node) bool { return true })
			} else if regions := pass.HotRegions(fd); len(regions) > 0 {
				fn(fd, func(n ast.Node) bool { return inStmts(n, regions) })
			}
		}
	}
}

// hotLoopBounds returns the bounds-engine sites of fd that lie in a
// loop of the swept scope: what hotbce judges and the oracle claims.
func hotLoopBounds(pass *Pass, fd *ast.FuncDecl, inScope func(ast.Node) bool) []boundsSite {
	var sites []boundsSite
	for _, site := range analyzeBounds(pass.Info, fd.Body) {
		if site.inLoop && inScope(site.node) {
			sites = append(sites, site)
		}
	}
	return sites
}

func runHotBCE(pass *Pass) error {
	eachDirectHot(pass, func(fd *ast.FuncDecl, inScope func(ast.Node) bool) {
		for _, site := range hotLoopBounds(pass, fd, inScope) {
			if site.proven {
				continue
			}
			hint := "guard the loop with an explicit len() comparison or a `_ = " + site.base + "[n-1]` hint, or restructure to slice-advance form"
			if site.need > 0 {
				hint = "establish len(" + site.base + ") >= " + strconv.Itoa(site.need) + " before the loop (length guard or `_ = " + site.base + "[" + strconv.Itoa(site.need-1) + "]` hint), or restructure to slice-advance form"
			}
			verb := "indexes"
			if site.kind == "slice" {
				verb = "slices"
			}
			pass.Report(site.node.Pos(),
				"%s %s %s in a hot loop without a provable bound; %s",
				fd.Name.Name, verb, site.expr, hint)
		}
	})
	return nil
}
