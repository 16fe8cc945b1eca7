package lint

import (
	"go/token"
	"go/types"
	"reflect"
	"testing"
)

func TestNameTokens(t *testing.T) {
	cases := []struct {
		name string
		want []string
	}{
		{"CatRatePerPoolHour", []string{"cat", "rate", "per", "pool", "hour"}},
		{"logP", []string{"log", "p"}},
		{"AnnualPDL", []string{"annual", "pdl"}},
		{"lambda_per_hour", []string{"lambda", "per", "hour"}},
		{"pdl", []string{"pdl"}},
		{"MTTDLHours", []string{"mttdl", "hours"}},
	}
	for _, c := range cases {
		if got := nameTokens(c.name); !reflect.DeepEqual(got, c.want) {
			t.Errorf("nameTokens(%q) = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestDomainFromName(t *testing.T) {
	cases := []struct {
		name string
		want Domain
	}{
		{"pdl", DomProb},
		{"AnnualPDL", DomProb},
		{"tailProb", DomProb},
		{"phi", DomProb},
		{"logPDL", DomLogProb}, // log wins over prob
		{"lnSurvive", DomLogProb},
		{"lp", DomLogProb},
		{"lambdaPerHour", DomRate},
		{"CatRatePerPoolHour", DomRate},
		{"mu", DomRate},
		{"stageWeight", DomWeight},
		{"diskCount", DomCount},
		{"total", DomCount},
		{"hours", DomNone},
		{"x", DomNone},
		{"pool", DomNone}, // "p" must match as a token, not a prefix
	}
	for _, c := range cases {
		if got := domainFromName(c.name); got != c.want {
			t.Errorf("domainFromName(%q) = %s, want %s", c.name, got, c.want)
		}
	}
}

// TestJoinDomLattice checks the join is a real lattice join: idempotent,
// commutative, None is the identity, Mixed absorbs, and distinct
// concrete domains meet at Mixed (never at each other).
func TestJoinDomLattice(t *testing.T) {
	all := []Domain{DomNone, DomProb, DomLogProb, DomRate, DomCount, DomWeight, DomMixed}
	for _, a := range all {
		if a.join(a) != a {
			t.Errorf("join(%s,%s) not idempotent", a, a)
		}
		if DomNone.join(a) != a || a.join(DomNone) != a {
			t.Errorf("None is not the identity for %s", a)
		}
		if a != DomNone && (DomMixed.join(a) != DomMixed || a.join(DomMixed) != DomMixed) {
			t.Errorf("Mixed does not absorb %s", a)
		}
		for _, b := range all {
			x, y := a.join(b), b.join(a)
			if x != y {
				t.Errorf("join(%s,%s)=%s but join(%s,%s)=%s", a, b, x, b, a, y)
			}
			if a != b && a != DomNone && b != DomNone && x != DomMixed {
				t.Errorf("join(%s,%s)=%s, want mixed", a, b, x)
			}
		}
	}
}

func TestParseUnitDirective(t *testing.T) {
	cases := []struct {
		text        string
		d           Domain
		isDirective bool
		ok          bool
	}{
		{"//mlec:unit prob", DomProb, true, true},
		{"//mlec:unit logprob", DomLogProb, true, true},
		{"//mlec:unit log-prob", DomLogProb, true, true},
		{"//mlec:unit rate events per hour", DomRate, true, true},
		{"//mlec:unit count", DomCount, true, true},
		{"//mlec:unit", DomNone, true, false},
		{"//mlec:unit   ", DomNone, true, false},
		{"//mlec:unit volts", DomNone, true, false},
		{"//mlec:unit mixed", DomNone, true, false}, // not annotatable
		{"// mlec:unit prob", DomNone, false, false},
		{"//lint:allow floateq exact", DomNone, false, false},
		{"", DomNone, false, false},
	}
	for _, c := range cases {
		d, isDirective, ok := parseUnitDirective(c.text)
		if d != c.d || isDirective != c.isDirective || ok != c.ok {
			t.Errorf("parseUnitDirective(%q) = (%s,%v,%v), want (%s,%v,%v)",
				c.text, d, isDirective, ok, c.d, c.isDirective, c.ok)
		}
	}
}

func TestUnitIndexAt(t *testing.T) {
	u := unitIndex{"f.go": {10: DomRate}}
	for line, want := range map[int]Domain{10: DomRate, 11: DomRate} {
		if d, ok := u.at(token.Position{Filename: "f.go", Line: line}); !ok || d != want {
			t.Errorf("at(f.go:%d) = (%s,%v), want (%s,true)", line, d, ok, want)
		}
	}
	if _, ok := u.at(token.Position{Filename: "f.go", Line: 12}); ok {
		t.Error("at(f.go:12) resolved; directives only bind one line down")
	}
	if _, ok := u.at(token.Position{Filename: "g.go", Line: 10}); ok {
		t.Error("at(g.go:10) resolved from the wrong file")
	}
}

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

// TestDomainSummaries pins the eager domain summaries on the probmix
// fixture: a helper's log-domain result is visible to its callers.
func TestDomainSummaries(t *testing.T) {
	l := newFixtureLoader(t)
	pkg := loadFixture(t, l, "probmix")
	facts := NewFacts([]*Package{pkg})
	for name, want := range map[string]Domain{
		"logOf":           DomLogProb,
		"compareRateProb": DomNone, // bool result carries no domain
		"productFromLogs": DomProb, // exp of a log-domain sum
	} {
		sum := facts.domainsOf(lookupFunc(t, pkg, name))
		if sum == nil || len(sum.results) == 0 {
			t.Errorf("domainsOf(%s): no summary", name)
			continue
		}
		if sum.results[0] != want {
			t.Errorf("domainsOf(%s).results[0] = %s, want %s", name, sum.results[0], want)
		}
	}
}
