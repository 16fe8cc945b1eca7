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

// engineTuples runs the four flow engines (taint, domain, escape, lock
// state) over every declared function of pkgs and returns one sorted
// "engine pos value" line per verdict: non-zero taint and non-none
// domain per expression, the taint/domain/mayFail summary of each
// function, every allocation site, every non-empty lock summary.
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
		domOf := func(of func(ast.Expr) DomVal) func(ast.Expr) string {
			return func(e ast.Expr) string {
				if v := of(e); v != (DomVal{}) {
					return fmt.Sprintf("%s exp=%v", v.D, v.ViaExp)
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
				for _, s := range pass.FuncAllocSites(fd) {
					emit("alloc", s.Node.Pos(), "kind=%d %s loop=%v %s", s.kind, s.Class, s.InLoop, s.What)
				}
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
						if r != (DomVal{}) {
							emit("domsum", fd.Pos(), "result%d %s exp=%v", i, r.D, r.ViaExp)
						}
					}
				}
				if mf, known := facts.MayFail(fn); known && mf {
					emit("mayfail", fd.Pos(), "true")
				}
				if sum := facts.LockSummaryOf(fn); sum != nil && !sum.empty() {
					var parts []string
					for _, set := range []struct {
						name string
						m    map[string]lockAbs
					}{{"requires", sum.requires}, {"acquires", sum.acquires}, {"releases", sum.releases}, {"internal", sum.internal}} {
						for _, abs := range sortedAbs(set.m) {
							parts = append(parts, set.name+":"+abs.key())
						}
					}
					emit("lock", fd.Pos(), "%s", strings.Join(parts, " "))
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
// every digest as it is. (The bounds engine's rows left with the
// engine: the fixtures that had any were re-digested from the tree
// before the deletion, without them.)
var pinnedVerdicts = map[string]string{
	"atomicmix":        "895cdfef1c24abe1",
	"barego":           "c5c9d5892e688cad",
	"cancel":           "5b474a9cbd868b52",
	"ctxpoll":          "e70767ab585b0e0b",
	"directive":        "78423aff97c23193",
	"errflow":          "5257a35fc65519bf",
	"floateq":          "6b1043489493c439",
	"globalrand":       "52e664af8629c205",
	"goleak":           "b9451eee82eef8f8",
	"guarddirective":   "a3fdca3cfebb7a59",
	"hotalloc":         "e4c8c10f8f01b286",
	"hotbce":           "254403c96fa4eb0d",
	"hotbuildfail":     "850e2936ee2bb88a",
	"hotdefer":         "7b0cc7c8afd2591d",
	"hotdirective":     "a6b1827412b4371c",
	"hotiface":         "1563835c82b57a42",
	"hotinline":        "37895f0508aaa7d8",
	"hotprealloc":      "c251c417fa58b6dc",
	"loadedge":         "0c410f0af59f1e81",
	"lockcheck":        "d50d9815bde253f9",
	"maporder":         "9c0f8b6f0f299f8a",
	"maporderdep":      "fe105df3a578b052",
	"nakedpanic":       "9b6d8355154e6c62",
	"obsfake":          "6cc95e7cb7e5e40d",
	"obspoll":          "2750a89ef75f8ba7",
	"probmix":          "6417bee476da936b",
	"sharedrng":        "d943f3a5c6d5e278",
	"unitdirective":    "5a4aad51ecd396e7",
	"waitgroupcapture": "0e71f05b16d46aff",
	"walltime":         "d8a4858a2e803c71",
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
