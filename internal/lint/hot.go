package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file implements the hotness half of the hot-path analysis
// family (the analyzers that read it are hotalloc.go, hotbce.go and
// hotinline.go).
//
// # Directive grammar
//
// The //mlec: grammar has two directives; the loader reports any other
// word after the prefix (a leftover //mlec:unit, a typo) as malformed:
//
//	//mlec:hot [rationale...]
//	//mlec:cold [rationale...]
//
// //mlec:hot on (or directly above) a function declaration marks the
// whole function as a hot path; on (or directly above) a statement it
// marks just that statement's subtree — typically the inner loop of a
// function whose setup is allowed to allocate. //mlec:cold attaches
// only to function declarations and is the propagation barrier: a
// reviewed claim that the function runs off the steady-state path
// (amortized poll points, error formatting, observability rendering),
// so hotness neither enters it nor flows through it to its callees.
// Any trailing text is a free-form rationale, encouraged for colds.
//
// # The hotness lattice
//
// Per function the analysis computes one of three values, ordered
// Cold > Hot > Unknown (an explicit human claim beats propagation,
// and either beats silence):
//
//	Cold     — annotated //mlec:cold; terminal.
//	Hot      — annotated //mlec:hot, called (directly or transitively)
//	           from a hot function, or called from inside a hot region.
//	Unknown  — neither; the hot* analyzers ignore it.
//
// Propagation runs top-down over the Tarjan condensation of the module
// call graph (callgraph.go): components are visited callers-first, a
// component with any hot member marks all its members hot (mutual
// recursion with a hot function is hot), and every direct callee of a
// hot function becomes hot unless cold. Calls made inside function
// literals are attributed to the enclosing declaration, matching the
// call graph's edge semantics — a helper invoked from a hot closure is
// hot. Indirect calls (function values, interface methods) propagate
// nothing; hotalloc flags the dispatch itself instead.
//
// Each propagated function records the caller that made it hot, so a
// diagnostic in a helper three packages away can say which annotated
// kernel pulled it onto the hot path.

// parseMlecDirective parses one comment's text as an //mlec: directive.
// isDirective reports the prefix; word is the text after it up to the
// first space or tab: "hot", "cold", or a word the loader reports
// (//mlec:hotspot names "hotspot", not a hot directive).
func parseMlecDirective(text string) (word string, isDirective bool) {
	rest, found := strings.CutPrefix(text, "//mlec:")
	if !found {
		return "", false
	}
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		rest = rest[:i]
	}
	return rest, true
}

// validateHotDirectives records every //mlec:hot directive that
// anchors to no function declaration or statement, and every
// //mlec:cold that anchors to no function declaration, as malformed.
// A directive at line L anchors to a node starting at L (trailing
// comment) or L+1 (comment line above).
func (p *Package) validateHotDirectives() {
	if len(p.hots) == 0 && len(p.colds) == 0 {
		return
	}
	declLines := make(map[string]map[int]bool)
	stmtLines := make(map[string]map[int]bool)
	mark := func(m map[string]map[int]bool, pos token.Position) {
		byLine(m, pos.Filename)[pos.Line] = true
	}
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			mark(declLines, p.Fset.Position(fd.Pos()))
			if fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if s, ok := n.(ast.Stmt); ok {
					mark(stmtLines, p.Fset.Position(s.Pos()))
				}
				return true
			})
		}
	}
	anchored := func(m map[string]map[int]bool, file string, line int) bool {
		return m[file][line] || m[file][line+1]
	}
	for file, lines := range p.hots {
		for line := range lines {
			if !anchored(declLines, file, line) && !anchored(stmtLines, file, line) {
				p.malformed(token.Position{Filename: file, Line: line, Column: 1}, badHot)
			}
		}
	}
	for file, lines := range p.colds {
		for line := range lines {
			if !anchored(declLines, file, line) {
				p.malformed(token.Position{Filename: file, Line: line, Column: 1}, badHot)
			}
		}
	}
}

// posIndex resolves line-anchored directives by file and line, merged
// across every package the fact store indexed.
type posIndex map[string]map[int]bool

// at reports a directive at the node's line or the line directly above.
func (x posIndex) at(pos token.Position) bool {
	lines := x[pos.Filename]
	return lines != nil && (lines[pos.Line] || lines[pos.Line-1])
}

// hotRegionStmts returns the statements of body annotated //mlec:hot.
// A statement already inside an annotated ancestor is not returned
// twice — the outermost annotated statement covers its subtree.
func hotRegionStmts(idx posIndex, fset *token.FileSet, body *ast.BlockStmt) []ast.Stmt {
	var regions []ast.Stmt
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		s, ok := n.(ast.Stmt)
		if ok && idx.at(fset.Position(s.Pos())) {
			regions = append(regions, s)
			return false // subtree is covered; don't nest regions
		}
		return true
	}
	ast.Inspect(body, walk)
	return regions
}

// computeHot seeds hotness from //mlec:hot annotations (declarations
// and regions) and propagates it top-down over the SCC condensation,
// stopping at //mlec:cold barriers. Must run after the condensation is
// built; the graph's deterministic node order keeps hotVia stable.
func (f *Facts) computeHot(g *callGraph) {
	f.hot = make(map[*types.Func]bool)
	f.cold = make(map[*types.Func]bool)
	f.hotVia = make(map[*types.Func]*types.Func)

	// Declaration-level seeds. Cold wins a conflict: a function both
	// annotated hot and cold is cold (the barrier is the stronger,
	// reviewed claim), though such code should not survive review.
	for _, n := range g.nodes {
		pos := f.fset.Position(n.site.decl.Pos())
		if f.coldIdx.at(pos) {
			f.cold[n.fn] = true
			continue
		}
		if f.hotIdx.at(pos) {
			f.hot[n.fn] = true
		}
	}

	// Region seeds: every resolvable callee inside a hot region is hot,
	// attributed to the enclosing function.
	for _, n := range g.nodes {
		body := n.site.decl.Body
		if body == nil {
			continue
		}
		info := n.site.pkg.Info
		for _, region := range hotRegionStmts(f.hotIdx, f.fset, body) {
			ast.Inspect(region, func(node ast.Node) bool {
				call, ok := node.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := calleeFunc(info, call)
				if callee == nil {
					return true
				}
				if _, known := f.decls[callee]; known && !f.cold[callee] && !f.hot[callee] {
					f.hot[callee] = true
					f.hotVia[callee] = n.fn
				}
				return true
			})
		}
	}

	// Top-down propagation: the condensation is emitted bottom-up
	// (callees first), so the reverse order visits callers before
	// callees and one sweep reaches a fixed point.
	for i := len(g.sccs) - 1; i >= 0; i-- {
		scc := g.sccs[i]
		var hotMember *types.Func
		for _, n := range scc {
			if f.hot[n.fn] {
				hotMember = n.fn
				break
			}
		}
		if hotMember == nil {
			continue
		}
		for _, n := range scc {
			if !f.cold[n.fn] && !f.hot[n.fn] {
				f.hot[n.fn] = true
				f.hotVia[n.fn] = hotMember
			}
		}
		for _, n := range scc {
			if !f.hot[n.fn] {
				continue
			}
			for _, c := range n.callees {
				if !f.cold[c.fn] && !f.hot[c.fn] {
					f.hot[c.fn] = true
					f.hotVia[c.fn] = n.fn
				}
			}
		}
	}
}

// IsHot reports whether fn is on a hot path: annotated //mlec:hot or
// reachable through direct calls from an annotated function or region.
func (f *Facts) IsHot(fn *types.Func) bool { return f.hot[fn] }

// IsCold reports whether fn carries an //mlec:cold barrier annotation.
func (f *Facts) IsCold(fn *types.Func) bool { return f.cold[fn] }

// HotVia returns the caller whose hotness propagated to fn, or nil
// when fn is hot by its own annotation (or not hot at all).
func (f *Facts) HotVia(fn *types.Func) *types.Func { return f.hotVia[fn] }

// hotLabel renders why fn is hot, for diagnostics: the annotation
// itself, or the nearest caller that propagated hotness.
func (f *Facts) hotLabel(fn *types.Func) string {
	via := f.hotVia[fn]
	if via == nil {
		return "annotated //mlec:hot"
	}
	if via.Pkg() != nil {
		return fmt.Sprintf("hot via %s.%s", via.Pkg().Name(), via.Name())
	}
	return fmt.Sprintf("hot via %s", via.Name())
}

// declFunc resolves the *types.Func of a declaration in this pass.
func (p *Pass) declFunc(fd *ast.FuncDecl) *types.Func {
	fn, _ := p.Info.Defs[fd.Name].(*types.Func)
	return fn
}

// FuncHot reports whether the declared function is hot (annotation or
// propagation); FuncCold whether it carries the cold barrier.
func (p *Pass) FuncHot(fd *ast.FuncDecl) bool {
	fn := p.declFunc(fd)
	return fn != nil && p.Facts.IsHot(fn)
}

// FuncCold reports whether the declared function is annotated cold.
func (p *Pass) FuncCold(fd *ast.FuncDecl) bool {
	fn := p.declFunc(fd)
	return fn != nil && p.Facts.IsCold(fn)
}

// HotRegions returns the //mlec:hot-annotated statements of the body
// (outermost only). For a function that is itself hot the regions are
// redundant — the whole body is in scope.
func (p *Pass) HotRegions(fd *ast.FuncDecl) []ast.Stmt {
	if fd.Body == nil {
		return nil
	}
	return hotRegionStmts(p.Facts.hotIdx, p.Fset, fd.Body)
}

// HotLabel renders the hotness provenance of a declaration for
// analyzer messages.
func (p *Pass) HotLabel(fd *ast.FuncDecl) string {
	fn := p.declFunc(fd)
	if fn == nil {
		return "annotated //mlec:hot"
	}
	return p.Facts.hotLabel(fn)
}
