package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"testing"
)

// FuzzLockStateEngine feeds arbitrary parser-valid Go sources through
// the lock-state engine in every mode. The engine walks the CFG to a
// fixed point over a depth-clamped lattice, so it must terminate and
// must not panic whatever the control-flow shape — including code that
// does not type-check (an empty types.Info is exactly how the engine
// sees expressions the checker could not resolve, so nil type lookups
// are a supported input, not an edge case). The corpus is seeded from
// the analyzer fixtures: every lock idiom the suite cares about is a
// mutation starting point.
func FuzzLockStateEngine(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("testdata", "src", "*", "*.go"))
	if err != nil {
		f.Fatal(err)
	}
	if len(seeds) == 0 {
		f.Fatal("no fixture seeds under testdata/src")
	}
	for _, path := range seeds {
		src, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(string(src))
	}
	f.Add("package p\nfunc f() { mu.Lock(); defer mu.Unlock(); for { go func() { mu.Lock() }() } }\n")
	f.Add("package p\nfunc f() { mu.RLock(); if x { return }; mu.RUnlock() }\n")
	f.Add("package p\nfunc f() { defer func() { mu.Unlock() }(); mu.Lock(); panic(\"x\") }\n")
	// A lock copied by value and then locked through the copy: the idiom
	// of the fixture that left with the copylock analyzer (go vet reports
	// it now), kept as a mutation starting point.
	f.Add("package p\nimport \"sync\"\ntype G struct{ mu sync.Mutex; n int }\nfunc f(g *G) int { tmp := *g; tmp.mu.Lock(); defer tmp.mu.Unlock(); return tmp.n }\n")

	f.Fuzz(func(t *testing.T, src string) {
		fset := token.NewFileSet()
		file, err := parser.ParseFile(fset, "fuzz.go", src, parser.SkipObjectResolution)
		if err != nil {
			t.Skip()
		}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
		facts := &Facts{
			decls:         make(map[*types.Func]*declSite),
			fset:          fset,
			locks:         make(map[*types.Func]*lockSummary),
			guardedFields: make(map[*types.Var]*types.Var),
			guardedVars:   make(map[*types.Var]*types.Var),
		}
		report := func(pos token.Pos, format string, args ...any) {}
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			// The reporting pass, as lockcheck runs it.
			newLockEngine(info, facts, nil, fd, report).analyze(fd.Body)
			// The summary pass, as computeLocks runs it.
			newLockEngine(info, facts, nil, fd, nil).analyze(fd.Body)
		}
	})
}
