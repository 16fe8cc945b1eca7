package lint

import (
	"crypto/sha256"
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// engineTuples runs the two flow engines (taint, domain) over every
// declared function of pkgs and returns one sorted "engine pos value"
// line per verdict: non-zero taint and non-none domain per expression,
// the taint/domain/mayFail summary of each function.
// Positions are relative to root so the lines compare across checkouts.
func engineTuples(root string, pkgs []*Package) []string {
	facts := NewFacts(pkgs)
	var lines []string
	for _, pkg := range pkgs {
		pass := &Pass{
			Analyzer: MapOrder, Fset: pkg.Fset, Files: pkg.Files,
			Pkg: pkg.Types, Info: pkg.Info, Facts: facts, pkg: pkg,
		}
		at := func(p token.Pos) string {
			pos := pkg.Fset.Position(p)
			rel, err := filepath.Rel(root, pos.Filename)
			if err != nil {
				rel = pos.Filename
			}
			return fmt.Sprintf("%s:%d:%d", filepath.ToSlash(rel), pos.Line, pos.Column)
		}
		emit := func(engine string, p token.Pos, format string, args ...any) {
			lines = append(lines, engine+" "+at(p)+" "+fmt.Sprintf(format, args...))
		}
		// exprs walks body the way the flow analyzers do: every
		// expression of the body against its engine result (of), every
		// function literal against its own (lit).
		var exprs func(engine string, body *ast.BlockStmt, of func(ast.Expr) string,
			lit func(*ast.FuncLit) func(ast.Expr) string)
		exprs = func(engine string, body *ast.BlockStmt, of func(ast.Expr) string,
			lit func(*ast.FuncLit) func(ast.Expr) string) {
			ast.Inspect(body, func(n ast.Node) bool {
				if l, ok := n.(*ast.FuncLit); ok {
					exprs(engine, l.Body, lit(l), lit)
					return false
				}
				if e, ok := n.(ast.Expr); ok {
					if v := of(e); v != "" {
						emit(engine, e.Pos(), "%T %s", e, v)
					}
				}
				return true
			})
		}
		taintOf := func(of func(ast.Expr) Taint) func(ast.Expr) string {
			return func(e ast.Expr) string {
				if t := of(e); t != 0 {
					return t.String()
				}
				return ""
			}
		}
		domOf := func(of func(ast.Expr) Domain) func(ast.Expr) string {
			return func(e ast.Expr) string {
				if v := of(e); v != DomNone {
					return v.String()
				}
				return ""
			}
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				exprs("taint", fd.Body, taintOf(pass.FuncTaint(fd).Of),
					func(l *ast.FuncLit) func(ast.Expr) string { return taintOf(pass.FuncLitTaint(l).Of) })
				exprs("domain", fd.Body, domOf(pass.FuncDomains(fd).Of),
					func(l *ast.FuncLit) func(ast.Expr) string { return domOf(pass.FuncLitDomains(l).Of) })
				fn := pass.declFunc(fd)
				if fn == nil {
					continue
				}
				if sum := facts.summaryOf(fn); sum != nil {
					for i, r := range sum.results {
						if r != (taintVal{}) {
							emit("taintsum", fd.Pos(), "result%d %s params=%#x", i, r.kinds, r.params)
						}
					}
					if sum.recvFlows {
						emit("taintsum", fd.Pos(), "recvFlows")
					}
				}
				if sum := facts.domainsOf(fn); sum != nil {
					for i, r := range sum.results {
						if r != DomNone {
							emit("domsum", fd.Pos(), "result%d %s", i, r)
						}
					}
				}
				if mf, known := facts.MayFail(fn); known && mf {
					emit("mayfail", fd.Pos(), "true")
				}
			}
		}
	}
	sort.Strings(lines)
	return lines
}

// pinnedVerdicts holds one digest per fixture package under
// testdata/src: the first 16 hex digits of the SHA-256 of that
// fixture's engineTuples lines. Recorded on the tree before the flow
// engines moved onto the shared solver; an engine refactor must leave
// every digest as it is. (The bounds engine's rows, later the lock
// engine's and then the escape engine's, left with their engines: the
// fixtures that had any were re-digested from the tree before each
// deletion, without them. Likewise the domain rows' exp= provenance bit,
// read only by the deleted cancel analyzer: every fixture was
// re-digested without it on the engine that still computed it.)
var pinnedVerdicts = map[string]string{
	"barego":           "f5f12a9d3a4576c1",
	"ctxpoll":          "442b82d16b2730d4",
	"directive":        "78423aff97c23193",
	"errflow":          "9224c51cd916c2a7",
	"escape":           "4348e38d4a3bf833",
	"floateq":          "c9c8cbaf54fe3db8",
	"globalrand":       "1c4451e78f69d217",
	"goleak":           "59290a97e64e9482",
	"hotalloc":         "dd06051f3317d964",
	"hotbce":           "7e8d2a723b4d3af1",
	"hotbuildfail":     "35752b6ab13b3370",
	"hotdefer":         "f490ea2fb0fe00a5",
	"hotdirective":     "fbcb6db20804209e",
	"hotiface":         "0ced22ef00982f02",
	"hotinline":        "759e922479eeef32",
	"hotprealloc":      "8ee74572a0291cbe",
	"loadedge":         "a80ff09381c674ff",
	"maporder":         "595884edf6306eb2",
	"maporderdep":      "cf034c8c63e38f02",
	"nakedpanic":       "a93858e8e7e802d2",
	"obsfake":          "6b98a93ee8ee16a4",
	"obspoll":          "5d44da9990394900",
	"probmix":          "411cb5b864eb6ab6",
	"sharedrng":        "171b0d3fd0071f00",
	"unitdirective":    "2fb2ded90bf4be12",
	"waitgroupcapture": "3ff7792710743edc",
	"walltime":         "00e3ec77e1636613",
	"walltimecli":      "cb74d8ad2f9205fc",
}

// TestEngineVerdictsPinned holds every flow engine to its recorded
// verdicts on the analyzer fixtures — stable inputs that exercise each
// idiom an analyzer cares about. A fixture without a pin, a pin without
// a fixture, and a digest that moved all fail; the failing fixture's
// tuples go to the log so two trees can be diffed.
func TestEngineVerdictsPinned(t *testing.T) {
	l := newFixtureLoader(t)
	src, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]bool)
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		pkg, err := l.LoadDir(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if pkg == nil {
			continue // no non-test Go files (the loader's own fixtures)
		}
		seen[e.Name()] = true
		lines := engineTuples(src, []*Package{pkg})
		sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
		got := fmt.Sprintf("%x", sum[:8])
		if want, ok := pinnedVerdicts[e.Name()]; !ok {
			t.Errorf("fixture %s has no pinned digest (got %s, %d tuples)", e.Name(), got, len(lines))
		} else if got != want {
			t.Errorf("fixture %s: engine verdicts moved: digest %s, pinned %s\n%s",
				e.Name(), got, want, strings.Join(lines, "\n"))
		}
	}
	for name := range pinnedVerdicts {
		if !seen[name] {
			t.Errorf("pinned digest for %s has no fixture", name)
		}
	}
}
