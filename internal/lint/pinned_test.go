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

// engineTuples runs the taint engine and the mayFail facts over every
// declared function of pkgs and returns one sorted "engine pos value"
// line per verdict: non-zero taint per expression, the taint/mayFail
// summary of each function.
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
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				exprs("taint", fd.Body, taintOf(pass.FuncTaint(fd).Of),
					func(l *ast.FuncLit) func(ast.Expr) string { return taintOf(pass.FuncLitTaint(l).Of) })
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
// re-digested without it on the engine that still computed it. And the
// domain engine's domain/domsum rows, whose only reader was the probmix
// analyzer: every fixture was re-digested without them on the tree that
// still had both.)
var pinnedVerdicts = map[string]string{
	"barego":           "e3b0c44298fc1c14",
	"directive":        "78423aff97c23193",
	"errflow":          "e7400b936cfa5dbb",
	"escape":           "d25161408fddc140",
	"floateq":          "324aca393db4a1ca",
	"globalrand":       "02f0c100df0d1373",
	"goleak":           "e3b0c44298fc1c14",
	"hotalloc":         "2a32d145a7a66983",
	"hotbce":           "47c630184af0eb3f",
	"hotbuildfail":     "e3b0c44298fc1c14",
	"hotdefer":         "e3b0c44298fc1c14",
	"hotdirective":     "e3b0c44298fc1c14",
	"hotiface":         "f2f6bbd8189a46c9",
	"hotinline":        "a561b8b28647475a",
	"hotprealloc":      "5cc63ce809545329",
	"loadedge":         "e3b0c44298fc1c14",
	"maporder":         "53ad7eee1d35d1db",
	"maporderdep":      "ce90fc7d404d715b",
	"nakedpanic":       "4833245e45a45842",
	"obsfake":          "e3b0c44298fc1c14",
	"sharedrng":        "bcac6f865b43d195",
	"waitgroupcapture": "0b7c20c533a3b365",
	"walltime":         "69e4731cf93998d0",
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
