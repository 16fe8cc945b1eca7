package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"

	"mlec/internal/lint/cfg"
)

// HotBCE enforces the bounds-check discipline on the //mlec:hot
// kernels: no index or slice expression inside a loop of a hot function
// (or hot region) may keep its bounds check. The verdict is the
// compiler's own: a `Found IsInBounds` or `Found IsSliceInBounds` from
// -d=ssa/check_bce (oracle.go) inside a loop of the swept scope is a
// finding, so a guard or a `_ = s[k]` hint that satisfies the prove
// pass satisfies the analyzer, and nothing else does.
//
// Scope is deliberately the directly annotated hot code, not the
// transitive hot set: propagation reaches simulation drivers whose
// per-event indexing is dominated by event dispatch, where a bounds
// check is noise, not cost. The annotated kernels are exactly the code
// whose per-byte loops make one check per iteration measurable.
// Checks outside loops are likewise ignored: a once-per-call check is
// not a steady-state cost.
var HotBCE = &Analyzer{
	Name: "hotbce",
	Doc:  "forbid bounds checks the compiler keeps in //mlec:hot loops",
	Run:  runHotBCE,
}

// funcDirectHot reports whether fd itself carries the //mlec:hot
// annotation (as opposed to hotness inherited through the call graph).
func (p *Pass) funcDirectHot(fd *ast.FuncDecl) bool {
	return p.Facts.hotIdx.at(p.Fset.Position(fd.Pos())) && !p.FuncCold(fd)
}

// inStmts reports whether p lies within one of the statements.
func inStmts(p token.Pos, stmts []ast.Stmt) bool {
	for _, s := range stmts {
		if p >= s.Pos() && p < s.End() {
			return true
		}
	}
	return false
}

// eachHotScope calls fn for every non-cold declaration of the pass that
// holds hot scope, with a test for whether a position of fd lies in
// it: all of fd when fd is hot — by its own //mlec:hot when direct, by
// annotation or propagation otherwise — and else its //mlec:hot region
// statements. hotbce and hotinline sweep the direct scope, hotalloc
// the whole.
func eachHotScope(pass *Pass, direct bool, fn func(fd *ast.FuncDecl, inScope func(token.Pos) bool)) {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || pass.FuncCold(fd) {
				continue
			}
			hot := pass.FuncHot(fd)
			if direct {
				hot = pass.funcDirectHot(fd)
			}
			if hot {
				fn(fd, func(token.Pos) bool { return true })
			} else if regions := pass.HotRegions(fd); len(regions) > 0 {
				fn(fd, func(p token.Pos) bool { return inStmts(p, regions) })
			}
		}
	}
}

// loopNodes returns the nodes of body's loop blocks: what runs once per
// iteration. A range header contributes its key, value and operand, not
// the statement, whose extent covers the body.
func loopNodes(body *ast.BlockStmt) []ast.Node {
	g := cfg.Build(body)
	loops := g.LoopBlocks()
	var nodes []ast.Node
	for _, b := range g.Blocks {
		if !loops[b] {
			continue
		}
		for _, n := range b.Nodes {
			r, ok := n.(*ast.RangeStmt)
			if !ok {
				nodes = append(nodes, n)
				continue
			}
			for _, e := range []ast.Expr{r.Key, r.Value, r.X} {
				if e != nil {
					nodes = append(nodes, e)
				}
			}
		}
	}
	return nodes
}

func runHotBCE(pass *Pass) error {
	eachHotScope(pass, true, func(fd *ast.FuncDecl, inScope func(token.Pos) bool) {
		checks := pass.keptChecks(fd.Body)
		if len(checks) == 0 {
			return
		}
		for _, n := range loopNodes(fd.Body) {
			if !inScope(n.Pos()) {
				continue
			}
			for _, p := range checks {
				if p < n.Pos() || p >= n.End() {
					continue
				}
				if what, ok := checkSite(n, p, pass.Fset); ok {
					pass.Report(p, "%s %s; establish the bound before the loop (an explicit len() guard "+
						"or a `_ = s[n-1]` hint), or restructure to slice-advance form", fd.Name.Name, what)
				}
			}
		}
	})
	return nil
}

// keptChecks returns the positions in body where the compiler kept a
// bounds check.
func (p *Pass) keptChecks(body *ast.BlockStmt) []token.Pos {
	var out []token.Pos
	for _, c := range p.Facts.compiled.found[p.Fset.File(body.Pos()).Name()] {
		if pos, ok := p.compilerPos(body, c); ok {
			out = append(out, pos)
		}
	}
	return out
}

// compilerPos converts a compiler-reported position in the file that
// holds n to a token.Pos, and reports whether it lies within n.
func (p *Pass) compilerPos(n ast.Node, c srcPos) (token.Pos, bool) {
	tf := p.Fset.File(n.Pos())
	if c.line < 1 || c.line > tf.LineCount() {
		return token.NoPos, false
	}
	pos := tf.LineStart(c.line) + token.Pos(c.col-1)
	return pos, pos >= n.Pos() && pos < n.End()
}

// checkSite describes the bounds check the compiler kept at p inside n,
// naming the expression by its position: an index or slice by its '[',
// an inlined call by its '('. A check inside a function literal belongs
// to the literal, not to the loop, and is skipped.
func checkSite(n ast.Node, p token.Pos, fset *token.FileSet) (string, bool) {
	const kept = " in a hot loop, and the compiler keeps its bounds check"
	what := "has a bounds check the compiler keeps at column " + strconv.Itoa(fset.Position(p).Column) + " of a hot loop"
	inLit := false
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			inLit = inLit || (p >= m.Pos() && p < m.End())
			return false
		case *ast.IndexExpr:
			if m.Lbrack == p {
				what = "indexes " + types.ExprString(m) + kept
			}
		case *ast.SliceExpr:
			if m.Lbrack == p {
				what = "slices " + types.ExprString(m) + kept
			}
		case *ast.CallExpr:
			if m.Lparen == p {
				what = "calls " + types.ExprString(m.Fun) + " in a hot loop, and the compiler keeps a bounds check in its inlined body"
			}
		}
		return true
	})
	return what, !inLit
}
