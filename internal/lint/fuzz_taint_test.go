package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"testing"

	"mlec/internal/lint/cfg"
)

// FuzzTaintEngine feeds arbitrary parser-valid Go sources through the
// CFG builder and the taint engine. The engine may not panic or
// diverge, whatever the control-flow shape: its worklist must reach its
// fixed point even on code that does not type-check (the fuzzer's
// inputs carry an empty types.Info, which is also how the engine sees
// expressions the checker could not resolve). The corpus is
// seeded from the analyzer fixtures, so every construct an analyzer
// cares about is a mutation starting point.
func FuzzTaintEngine(f *testing.F) {
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
	f.Add("package p\nfunc f() { for { if x { continue }; break } }\n")
	// The loop shapes of the deleted ctxpoll fixtures: context-taking
	// functions around rand-drawing for and range loops, one polling,
	// one delegating, one stepping an engine.
	f.Add("package p\nimport (\n\t\"context\"\n\t\"math/rand\"\n)\nfunc polls(ctx context.Context, n int, rng *rand.Rand) float64 {\n\tsum := 0.0\n\tfor i := 0; i < n; i++ {\n\t\tif i%1024 == 0 && ctx.Err() != nil {\n\t\t\treturn sum\n\t\t}\n\t\tsum += rng.Float64()\n\t}\n\treturn sum\n}\nfunc delegates(ctx context.Context, xs []float64, rng *rand.Rand) float64 {\n\tsum := 0.0\n\tfor range xs {\n\t\tsum += once(ctx, rng)\n\t}\n\treturn sum\n}\nfunc once(ctx context.Context, rng *rand.Rand) float64 {\n\tif ctx.Err() != nil {\n\t\treturn 0\n\t}\n\treturn rng.Float64()\n}\n")
	f.Add("package p\nimport (\n\t\"context\"\n\t\"mlec/internal/sim\"\n)\nfunc drain(ctx context.Context, eng *sim.Engine, horizon float64) {\n\tfor i := 0; ; i++ {\n\t\tif i%1024 == 0 && ctx.Err() != nil {\n\t\t\treturn\n\t\t}\n\t\tnext, ok := eng.NextTime()\n\t\tif !ok || next > horizon {\n\t\t\treturn\n\t\t}\n\t\teng.Step()\n\t}\n}\n")
	f.Add("package p\nfunc f(n int) int {\n\tgoto L\nL:\n\treturn n\n}\n")
	// A lock copied by value and then locked through the copy: the idiom
	// of the fixture that left with the copylock analyzer (go vet reports
	// it now), kept as a mutation starting point.
	f.Add("package p\nimport \"sync\"\ntype G struct{ mu sync.Mutex; n int }\nfunc f(g *G) int { tmp := *g; tmp.mu.Lock(); defer tmp.mu.Unlock(); return tmp.n }\n")
	// The idioms of the three fixtures that left with the lock analyzers
	// (the race detector checks them now): a deferred-closure unlock on
	// an early-return path, a field both atomic and plain, a read lock in
	// a goroutine literal. Kept as mutation starting points.
	f.Add("package p\nimport \"sync\"\ntype C struct{ mu sync.Mutex; n int }\nfunc (c *C) Get(ok bool) int {\n\tc.mu.Lock()\n\tdefer func() { c.mu.Unlock() }()\n\tif !ok {\n\t\treturn 0\n\t}\n\treturn c.n\n}\n")
	f.Add("package p\nimport \"sync/atomic\"\ntype H struct{ n int64 }\nfunc (h *H) Inc() { atomic.AddInt64(&h.n, 1) }\nfunc (h *H) Racy() int64 { return h.n }\n")
	f.Add("package p\nimport \"sync\"\ntype R struct{ mu sync.RWMutex; m map[string]int }\nfunc (r *R) Scan(keys []string) {\n\tgo func() {\n\t\tr.mu.RLock()\n\t\tdefer r.mu.RUnlock()\n\t\tfor _, k := range keys {\n\t\t\t_ = r.m[k]\n\t\t}\n\t}()\n}\n")
	// The idioms of the fixture that left with the cancel analyzer (the
	// tests catch them now): 1 − exp through a variable, log(1 + x), and
	// prob − prob. Kept as a mutation starting point.
	f.Add("package p\nimport \"math\"\nfunc f(logSurvive, x, pHi, pLo float64) (float64, float64, float64) {\n\tq := math.Exp(logSurvive)\n\treturn 1 - q, math.Log(1 + x), pHi - pLo\n}\n")
	// The idioms of the two fixtures that left with the probmix analyzer
	// (mathx.Prob, Rate and AFR make the mixes compile errors now): a
	// log-domain value added to a probability through a helper, and a
	// leftover //mlec:unit annotation. Kept as mutation starting points.
	f.Add("package p\nimport \"math\"\nfunc logOf(p float64) float64 { return math.Log(p) }\nfunc mix(pdl, ratePerHour float64) (float64, bool) {\n\tv := logOf(pdl)\n\treturn v + pdl, ratePerHour > pdl\n}\n")
	f.Add("package p\n//mlec:unit rate\nvar arrivals = 3.5e-6\nfunc mixes(pdl float64) float64 { return arrivals + pdl }\n")

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
			decls:     make(map[*types.Func]*declSite),
			fset:      fset,
			summaries: make(map[*types.Func]*funcSummary),
			mayFail:   make(map[*types.Func]bool),
		}
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			cfg.Build(fd.Body)
			analyzeBody(info, facts, fd.Body, nil, nil)
		}
	})
}
