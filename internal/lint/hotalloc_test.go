package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestEscapeEngine pins hotalloc's verdict idiom by idiom on the escape
// fixture, one hot function per idiom: the findings each function draws,
// in source order, whether the compiler's escape analysis or the source
// is the one that sees them.
func TestEscapeEngine(t *testing.T) {
	pkg := loadFixture(t, newFixtureLoader(t), "escape")
	diags, err := Run([]*Package{pkg}, []*Analyzer{HotAlloc})
	if err != nil {
		t.Fatal(err)
	}
	byFunc := make(map[string][]string)
	for _, d := range diags {
		fn, _, _ := strings.Cut(d.Message, " ")
		byFunc[fn] = append(byFunc[fn], d.Message)
	}
	cases := []struct {
		name string
		fn   string
		want []string // message substrings, in source order
	}{
		// The make escapes by return; the appends have its capacity.
		{"sanitized append after explicit-cap make", "SanitizedAppend",
			[]string{"heap-allocates make([]int, 0, len(xs))"}},
		{"two-arg make is no capacity plan", "TwoArgMake",
			[]string{"heap-allocates make([]int, 0)", "appends in a hot loop without a capacity plan"}},
		{"warm buffer reuse via [:0]", "WarmReuse", nil},
		// The compiler keeps the constant-size make on the stack.
		{"plan does not transfer to another slice", "PlanDoesNotTransfer",
			[]string{"appends in a hot loop without a capacity plan"}},
		{"plan after the append does not dominate", "PlanAfterAppend",
			[]string{"appends on the hot path without a capacity plan", "heap-allocates make([]int, 0, 8)"}},
		{"cold path exempts error formatting", "ColdPath", nil},
		{"non-escaping make is stack-plausible", "NonEscapingMake", nil},
		{"escape by return upgrades to heap", "EscapeByReturn",
			[]string{"heap-allocates make([]byte, n) (the compiler: escapes to heap"}},
		// The compiler prints the static function value as escaping.
		{"capture-free literal is not a closure allocation", "CaptureFree", nil},
		{"capturing literal allocates", "Capturing",
			[]string{"heap-allocates i (the compiler: moved to heap", "heap-allocates func literal"}},
		{"boxing an int allocates, boxing a pointer does not", "Boxing",
			[]string{"heap-allocates x (the compiler: escapes to heap"}},
		// The deferred literal captures nothing: the defer record is the
		// source's finding.
		{"defer and dispatch inside a goto loop carry the loop bit", "GotoLoop",
			[]string{"defers inside a hot loop", "has interface method call Step in a hot loop"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := byFunc[c.fn]
			if len(got) != len(c.want) {
				t.Fatalf("%s: got %d findings %q, want %d %q", c.fn, len(got), got, len(c.want), c.want)
			}
			for i, w := range c.want {
				if !strings.Contains(got[i], w) {
					t.Errorf("%s: finding %d = %q, want it to contain %q", c.fn, i, got[i], w)
				}
			}
		})
	}
}

// FuzzHotalloc feeds arbitrary parser-valid Go sources through
// hotalloc's own half — the steady-state extents, the append capacity
// plans, the capture check, dispatch and defer in loops — with every
// function hot and a compiler transcript that puts a heap site at the
// start of every line, past the end of the file included. hotalloc must
// never panic, and every finding must carry a position and a message,
// whatever the control-flow shape and even where the source does not
// type-check. The corpus is seeded from the analyzer fixtures, so every
// construct the hot* analyzers care about is a mutation starting point.
func FuzzHotalloc(f *testing.F) {
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
	f.Add("package p\nfunc f(n int) {\n\ti := 0\nagain:\n\tdefer g()\n\ti++\n\tif i < n {\n\t\tgoto again\n\t}\n}\n")
	// The loop shapes of the deleted ctxpoll fixtures: context-taking
	// functions around rand-drawing for and range loops, one polling,
	// one delegating, one stepping an engine.
	f.Add("package p\nimport (\n\t\"context\"\n\t\"math/rand\"\n)\nfunc polls(ctx context.Context, n int, rng *rand.Rand) float64 {\n\tsum := 0.0\n\tfor i := 0; i < n; i++ {\n\t\tif i%1024 == 0 && ctx.Err() != nil {\n\t\t\treturn sum\n\t\t}\n\t\tsum += rng.Float64()\n\t}\n\treturn sum\n}\nfunc delegates(ctx context.Context, xs []float64, rng *rand.Rand) float64 {\n\tsum := 0.0\n\tfor range xs {\n\t\tsum += once(ctx, rng)\n\t}\n\treturn sum\n}\nfunc once(ctx context.Context, rng *rand.Rand) float64 {\n\tif ctx.Err() != nil {\n\t\treturn 0\n\t}\n\treturn rng.Float64()\n}\n")
	f.Add("package p\nimport (\n\t\"context\"\n\t\"mlec/internal/sim\"\n)\nfunc drain(ctx context.Context, eng *sim.Engine, horizon float64) {\n\tfor i := 0; ; i++ {\n\t\tif i%1024 == 0 && ctx.Err() != nil {\n\t\t\treturn\n\t\t}\n\t\tnext, ok := eng.NextTime()\n\t\tif !ok || next > horizon {\n\t\t\treturn\n\t\t}\n\t\teng.Step()\n\t}\n}\n")
	f.Add("package p\nfunc f(xs []int) []int {\n\tout := make([]int, 0, len(xs))\n\tfor _, x := range xs {\n\t\tout = append(out, x)\n\t}\n\treturn out\n}\n")
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
		file, err := parser.ParseFile(fset, "fuzz.go", src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Skip()
		}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
		}
		// Type errors (an import with no importer among them) leave
		// holes in info, which hotalloc must tolerate.
		conf := types.Config{Error: func(error) {}}
		tpkg, _ := conf.Check("p", fset, []*ast.File{file}, info)
		pkg := &Package{Path: "p", Fset: fset, Files: []*ast.File{file}, Types: tpkg, Info: info}
		pkg.collectAllows()
		lines := fset.File(file.Pos()).LineCount()
		var heap []heapSite
		for l := 1; l <= lines+2; l++ {
			heap = append(heap, heapSite{srcPos{"fuzz.go", l, 1}, "x", "escapes to heap"})
		}
		facts := &Facts{
			fset: fset, hotIdx: pkg.hots, coldIdx: pkg.colds,
			hot: make(map[*types.Func]bool), cold: make(map[*types.Func]bool),
			compiled: &compiled{heap: map[string][]heapSite{"fuzz.go": heap}},
		}
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
					facts.hot[fn] = true
				}
			}
		}
		var diags []Diagnostic
		pass := &Pass{Analyzer: HotAlloc, Fset: fset, Files: pkg.Files, Pkg: tpkg, Info: info, Facts: facts, pkg: pkg, diag: &diags}
		if err := runHotAlloc(pass); err != nil {
			t.Fatal(err)
		}
		for _, d := range diags {
			if !d.Pos.IsValid() || d.Message == "" {
				t.Fatalf("finding without a position or a message: %v", d)
			}
		}
	})
}
