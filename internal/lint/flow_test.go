package lint

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"mlec/internal/lint/cfg"
)

// srcPackage parses and type-checks one source file into a Package the
// analyzers can run over, directives indexed.
func srcPackage(t *testing.T, src string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "flow_test_src.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	tpkg, err := (&types.Config{Importer: importer.Default()}).Check("p", fset, []*ast.File{file}, info)
	if err != nil {
		t.Fatalf("type error in test source: %v", err)
	}
	pkg := &Package{Path: "p", Fset: fset, Files: []*ast.File{file}, Types: tpkg, Info: info}
	pkg.collectAllows()
	pkg.validateHotDirectives()
	return pkg
}

// chain renders "vN = v(N-1); …; v1 = v0": read top to bottom, each
// pass over the statements moves a fact about v0 one variable further,
// so a loop around them needs n trips to settle — a monotone flow that
// is merely slow, and with n past the solver's cap, one it gives up on.
func chain(v string, n int) string {
	var b strings.Builder
	for i := n; i >= 1; i-- {
		fmt.Fprintf(&b, "\t\t%s%d = %s%d\n", v, i, v, i-1)
	}
	return b.String()
}

// names renders "v0, v1, …, vn".
func names(v string, n int) string {
	parts := make([]string, n+1)
	for i := range parts {
		parts[i] = fmt.Sprintf("%s%d", v, i)
	}
	return strings.Join(parts, ", ")
}

// The cap policy, client by client: the same function shape at a depth
// the solver settles and at one it gives up on. Settled, the analyzer
// reports; given up on, it reports nothing and claims nothing — not
// even the findings a half-iterated state would already support.
const (
	settles = 4
	givesUp = 2 * cfg.IterationCap
)

func TestTaintGivesUpSilently(t *testing.T) {
	src := func(n int) string {
		return "package p\n\nfunc Sum(m map[int]float64) float64 {\n" +
			"\tvar " + names("a", n) + ", sum float64\n" +
			"\tfor _, x := range m {\n" + chain("a", n) + "\t\ta0 = x\n" +
			fmt.Sprintf("\t\tsum += a%d\n", n) + "\t}\n\treturn sum\n}\n"
	}
	diags, err := Run([]*Package{srcPackage(t, src(settles))}, []*Analyzer{MapOrder})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) == 0 {
		t.Fatal("maporder missed the float accumulation behind a short chain")
	}
	diags, err = Run([]*Package{srcPackage(t, src(givesUp))}, []*Analyzer{MapOrder})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("reported from a flow that did not converge: %s", d)
	}
}
