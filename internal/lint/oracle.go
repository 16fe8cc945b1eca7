package lint

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/token"
	"io"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// This file is the compiler-oracle half of the hotbce/hotinline pair:
// the static engines make claims ("this index needs no check", "this
// callee will inline"), and `mlecvet -compiler` checks every claim
// against the real compiler's diagnostics from
//
//	go build -gcflags='<module>/...=-d=ssa/check_bce -m' <module>/...
//
// A disagreement in either direction is its own finding class:
//
//   - The engine proves a site the compiler still checks: the engine is
//     unsound for that idiom and must be fixed before its verdicts can
//     be trusted.
//   - The compiler eliminates a site the engine cannot prove: the
//     engine is too conservative, and a kernel author following its
//     hint would add a guard the compiler does not need.
//   - A callee the engine judged inlinable is missing from the `-m`
//     `can inline` set: the shape heuristics in hotinline have diverged
//     from the real inliner.
//
// Comparison is per source line, only on lines where the static engine
// makes a claim: check_bce reports column positions that do not line up
// node-for-node with AST positions, but line granularity does. A line
// carrying both proven and unproven claims is skipped — neither verdict
// about the line as a whole would be justified.

// A BoundsClaim is the static engine's verdict for one index or slice
// expression in a swept hot loop.
type BoundsClaim struct {
	Pos    token.Position
	Expr   string
	Proven bool
}

// An InlineClaim records that hotinline judged a hot-loop callee
// inlinable (small, in-module, blocker-free): the compiler must agree
// with a `can inline` line at the callee's declaration.
type InlineClaim struct {
	CallPos token.Position
	DeclPos token.Position
	Name    string
}

// CollectOracleClaims gathers the claims for the swept scope — loop
// sites in directly //mlec:hot functions and hot regions — mirroring
// exactly what hotbce and hotinline inspect.
func CollectOracleClaims(pkgs []*Package) ([]BoundsClaim, []InlineClaim) {
	facts := NewFacts(pkgs)
	var bounds []BoundsClaim
	var inlines []InlineClaim
	for _, pkg := range pkgs {
		pass := &Pass{
			Analyzer: HotBCE,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			Info:     pkg.Info,
			Facts:    facts,
			pkg:      pkg,
		}
		eachDirectHot(pass, func(fd *ast.FuncDecl, inScope func(ast.Node) bool) {
			for _, site := range hotLoopBounds(pass, fd, inScope) {
				bounds = append(bounds, BoundsClaim{
					Pos:    pass.Fset.Position(site.node.Pos()),
					Expr:   site.expr,
					Proven: site.proven,
				})
			}
			for _, call := range loopCallExprs(fd) {
				if !inScope(call) {
					continue
				}
				site, verdict := judgeCall(pass, call)
				if verdict != callInlinable {
					continue
				}
				ds := facts.decls[site.callee]
				inlines = append(inlines, InlineClaim{
					CallPos: pass.Fset.Position(call.Pos()),
					DeclPos: ds.pkg.Fset.Position(ds.decl.Pos()),
					Name:    site.callee.Name(),
				})
			}
		})
	}
	return bounds, inlines
}

// OracleFacts is the parsed compiler output: which source lines kept a
// bounds check, and which declaration lines the inliner accepted.
// Paths are kept as the compiler printed them (relative to the module
// root) and matched against absolute claim positions by path suffix.
type OracleFacts struct {
	Bounds    map[oracleKey][]string // base+line -> compiler-printed paths with Found
	CanInline map[oracleKey][]string // base+line of a `can inline` declaration
}

// oracleKey indexes diagnostics by file base name and line; the stored
// paths disambiguate same-named files in different directories.
type oracleKey struct {
	base string
	line int
}

var (
	foundRe  = regexp.MustCompile(`^(.+\.go):(\d+):\d+: Found (?:IsInBounds|IsSliceInBounds)$`)
	inlineRe = regexp.MustCompile(`^(.+\.go):(\d+):\d+: can inline `)
)

// ParseOracle extracts check_bce and inliner facts from the combined
// output of the oracle build; all other lines (escape analysis, package
// banners) are ignored.
func ParseOracle(r io.Reader) (*OracleFacts, error) {
	facts := &OracleFacts{
		Bounds:    make(map[oracleKey][]string),
		CanInline: make(map[oracleKey][]string),
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if m := foundRe.FindStringSubmatch(line); m != nil {
			facts.add(facts.Bounds, m[1], m[2])
		} else if m := inlineRe.FindStringSubmatch(line); m != nil {
			facts.add(facts.CanInline, m[1], m[2])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("oracle: reading compiler output: %w", err)
	}
	return facts, nil
}

func (f *OracleFacts) add(m map[oracleKey][]string, file, lineStr string) {
	n, err := strconv.Atoi(lineStr)
	if err != nil {
		return
	}
	file = filepath.ToSlash(file)
	k := oracleKey{base: filepath.Base(file), line: n}
	for _, p := range m[k] {
		if p == file {
			return
		}
	}
	m[k] = append(m[k], file)
}

// at reports whether m holds a diagnostic for the claim position: same
// base name and line, with the compiler-printed path a suffix of the
// claim's path (compiler paths are module-relative, claim paths
// absolute).
func oracleAt(m map[oracleKey][]string, pos token.Position) bool {
	file := filepath.ToSlash(pos.Filename)
	for _, p := range m[oracleKey{base: filepath.Base(file), line: pos.Line}] {
		if file == p || strings.HasSuffix(file, "/"+p) {
			return true
		}
	}
	return false
}

// A Disagreement is one line where the static engine and the compiler
// reached different verdicts.
type Disagreement struct {
	Pos    token.Position
	Detail string
}

func (d Disagreement) String() string {
	return fmt.Sprintf("%s:%d: %s", d.Pos.Filename, d.Pos.Line, d.Detail)
}

// CompareOracle cross-checks the claims against the compiler facts and
// returns the disagreements sorted by position. Bounds claims are
// grouped per line; a line with both proven and unproven claims is
// skipped (no line-level verdict is justified).
func CompareOracle(bounds []BoundsClaim, inlines []InlineClaim, facts *OracleFacts) []Disagreement {
	var out []Disagreement

	type lineVerdict struct {
		pos                token.Position
		proven, unproven   bool
		provenEx, unprovEx string
	}
	lines := make(map[oracleKey]*lineVerdict)
	for _, c := range bounds {
		k := oracleKey{base: filepath.Base(filepath.ToSlash(c.Pos.Filename)), line: c.Pos.Line}
		v := lines[k]
		if v == nil {
			v = &lineVerdict{pos: c.Pos}
			lines[k] = v
		}
		if c.Proven {
			v.proven, v.provenEx = true, c.Expr
		} else {
			v.unproven, v.unprovEx = true, c.Expr
		}
	}
	for _, v := range lines {
		switch {
		case v.proven && v.unproven:
			// Mixed line: check_bce output cannot be attributed to one
			// claim, so neither direction is checkable.
		case v.proven && oracleAt(facts.Bounds, v.pos):
			out = append(out, Disagreement{Pos: v.pos, Detail: fmt.Sprintf(
				"static engine proves %s but the compiler kept a bounds check (Found IsInBounds); the engine is unsound for this idiom", v.provenEx)})
		case v.unproven && !oracleAt(facts.Bounds, v.pos):
			out = append(out, Disagreement{Pos: v.pos, Detail: fmt.Sprintf(
				"compiler eliminated the bounds check on %s but the static engine cannot prove it; teach the engine the idiom", v.unprovEx)})
		}
	}

	for _, c := range inlines {
		if !oracleAt(facts.CanInline, c.DeclPos) {
			out = append(out, Disagreement{Pos: c.CallPos, Detail: fmt.Sprintf(
				"hotinline judged %s inlinable but the compiler printed no `can inline %s` at %s:%d; the shape heuristics have diverged",
				c.Name, c.Name, c.DeclPos.Filename, c.DeclPos.Line)})
		}
	}

	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return out[i].Detail < out[j].Detail
	})
	return out
}
