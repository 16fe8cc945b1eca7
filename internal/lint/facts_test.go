package lint

import (
	"go/types"
	"testing"
)

// lookupFunc resolves a package-scope function of a fixture package.
func lookupFunc(t *testing.T, pkg *Package, name string) *types.Func {
	t.Helper()
	fn, ok := pkg.Types.Scope().Lookup(name).(*types.Func)
	if !ok {
		t.Fatalf("fixture has no function %q", name)
	}
	return fn
}

// TestMayFailFixedPoint pins the interprocedural errflow facts on the
// errflow fixture: direct failures, propagation through wrappers and
// tail calls, and the SCC fixed point proving a mutually-recursive
// nil-only cycle infallible.
func TestMayFailFixedPoint(t *testing.T) {
	l := newFixtureLoader(t)
	pkg := loadFixture(t, l, "errflow")
	facts := NewFacts([]*Package{pkg})
	for name, want := range map[string]bool{
		"step":      true,
		"validate":  true,
		"wrap":      true,
		"relay":     true,
		"alwaysNil": false,
		"nilRelay":  false,
		"evenOK":    false,
		"oddOK":     false,
	} {
		got, known := facts.MayFail(lookupFunc(t, pkg, name))
		if !known {
			t.Errorf("MayFail(%s) unknown; the fixture function was not summarized", name)
			continue
		}
		if got != want {
			t.Errorf("MayFail(%s) = %v, want %v", name, got, want)
		}
	}
	// evenOK/oddOK share one component, so the condensation must be one
	// smaller than the declaration count.
	if decls := len(facts.decls); facts.sccCount != decls-1 {
		t.Errorf("sccCount = %d with %d decls; evenOK/oddOK should share one SCC", facts.sccCount, decls)
	}
	if facts.maxSCCIters < 2 {
		t.Errorf("maxSCCIters = %d; the cyclic component should need a confirming pass", facts.maxSCCIters)
	}
}
