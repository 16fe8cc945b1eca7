package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the probflow dataflow engine: a forward analysis over
// each function's CFG tracking the numeric Domain (domain.go) of every
// variable and expression. It is the second lattice of the shared
// walker (flow.go), with arithmetic-aware rules: math.Log moves a
// probability into log space, math.Exp moves it back (setting the
// ViaExp provenance bit the cancel analyzer keys on), multiplication
// composes probabilities but addition across domains poisons the
// result to DomMixed. The probmix and cancel analyzers read the
// recorded per-expression values.

// FuncDomains is the result of running the domain engine over one
// function body: the domain of every expression at its evaluation
// point, plus the joined domain of each result slot (used by the fact
// store to build cross-package summaries).
type FuncDomains varFlow[DomVal]

// Of returns the domain value of an expression node.
func (fd *FuncDomains) Of(e ast.Expr) DomVal { return fd.exprs[e] }

// domainFlow runs the forward domain analysis over a function body to a
// fixed point (runFlow). params seeds the parameter objects from their
// annotations/names; resultObjs names the result objects for bare
// returns.
func domainFlow(info *types.Info, facts *Facts, body *ast.BlockStmt,
	params map[types.Object]DomVal, resultObjs []types.Object) *FuncDomains {
	return (*FuncDomains)(runFlow[DomVal](domRules{}, info, facts, body, params, resultObjs))
}

// domRules is the domain lattice's side of the shared walker.
type domRules struct{}

type domFlow = varFlow[DomVal]

// declared: a variable whose right-hand side carried no domain falls
// back to its declared seed (annotation, then name heuristic; see
// seedObject).
func (domRules) declared(fl *domFlow, obj types.Object) DomVal {
	if fl.facts == nil {
		return DomVal{}
	}
	return seedObject(fl.facts.units, fl.facts.fset, obj)
}

// slot: per-slot domains of x, y := f() come from the callee summary.
func (t domRules) slot(fl *domFlow, e ast.Expr, _ DomVal, i int) DomVal {
	if call, ok := e.(*ast.CallExpr); ok {
		if sum := t.calleeDomains(fl, call); sum != nil && i < len(sum.results) {
			return sum.results[i]
		}
	}
	return DomVal{}
}

// ranged: ranging a container yields elements of the container's
// domain; the key is a count.
func (domRules) ranged(_ *domFlow, _ *ast.RangeStmt, x DomVal) (key, val DomVal) {
	return DomVal{D: DomCount}, x
}

func (domRules) stored(_ *domFlow, _ *ast.IndexExpr, v DomVal) DomVal { return v }

// compound: x op= e keeps x in its domain family the way the binary
// operator would.
func (domRules) compound(_ *domFlow, a *ast.AssignStmt, old, v DomVal) (DomVal, bool, bool) {
	var op token.Token
	switch a.Tok {
	case token.ADD_ASSIGN:
		op = token.ADD
	case token.SUB_ASSIGN:
		op = token.SUB
	case token.MUL_ASSIGN:
		op = token.MUL
	case token.QUO_ASSIGN:
		op = token.QUO
	default:
		return DomVal{}, false, false
	}
	return binaryDomain(op, old, v), true, true
}

// expr computes the domain of an expression: the structural rules of
// structural, then the type rules that hold whatever the structure.
func (t domRules) expr(fl *domFlow, s varStore[DomVal], e ast.Expr) DomVal {
	v := t.structural(fl, s, e)
	if tv, ok := fl.info.Types[e]; ok {
		if tv.Value != nil {
			// Constants carry no domain: 1, 0.5 and friends are
			// compatible with every scale.
			v = DomVal{}
		} else if isIntegerType(tv.Type) && v == (DomVal{}) {
			// Every integer-typed value is a count (exact arithmetic);
			// an explicit annotation on the variable may refine it, so
			// only override values with no information.
			v = DomVal{D: DomCount}
		}
	}
	return v
}

func (t domRules) structural(fl *domFlow, s varStore[DomVal], e ast.Expr) DomVal {
	switch e := e.(type) {
	case *ast.Ident:
		if obj := fl.info.ObjectOf(e); obj != nil {
			if v, ok := s[obj]; ok {
				return v
			}
			// Package-level variables and constants are not in the
			// flow store; fall back to their declared seed.
			if _, isVar := obj.(*types.Var); isVar {
				return t.declared(fl, obj)
			}
		}
	case *ast.ParenExpr:
		return fl.eval(s, e.X)
	case *ast.UnaryExpr:
		// Negation keeps the scale (-log p is still log-domain; -p is
		// still probability-scaled), as do &x and <-ch.
		return fl.eval(s, e.X)
	case *ast.StarExpr:
		return fl.eval(s, e.X)
	case *ast.BinaryExpr:
		x := fl.eval(s, e.X)
		y := fl.eval(s, e.Y)
		return binaryDomain(e.Op, x, y)
	case *ast.IndexExpr:
		fl.eval(s, e.Index)
		return fl.eval(s, e.X)
	case *ast.SliceExpr:
		v := fl.eval(s, e.X)
		if e.Low != nil {
			fl.eval(s, e.Low)
		}
		if e.High != nil {
			fl.eval(s, e.High)
		}
		if e.Max != nil {
			fl.eval(s, e.Max)
		}
		return v
	case *ast.SelectorExpr:
		// Field reads are seeded from the field's own declaration
		// (annotation or name): s1.CatRatePerPoolHour is a rate
		// wherever the struct travels.
		if sel, ok := fl.info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			fl.eval(s, e.X)
			return t.declared(fl, sel.Obj())
		}
		return DomVal{}
	case *ast.CompositeLit:
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				fl.eval(s, kv.Value)
				continue
			}
			fl.eval(s, el)
		}
		// A composite value has no scalar domain of its own; element
		// reads re-seed from field declarations.
		return DomVal{}
	case *ast.TypeAssertExpr:
		return fl.eval(s, e.X)
	case *ast.CallExpr:
		return t.call(fl, s, e)
	case *ast.FuncLit:
		return DomVal{}
	}
	return DomVal{}
}

// binaryDomain applies the operator-aware domain algebra. The rules
// encode the measurement semantics the repository's formulas rely on;
// anything not listed is DomNone (no claim) or DomMixed when an operand
// already is.
func binaryDomain(op token.Token, x, y DomVal) DomVal {
	if x.D == DomMixed || y.D == DomMixed {
		return DomVal{D: DomMixed}
	}
	viaExp := x.ViaExp || y.ViaExp
	switch op {
	case token.ADD, token.SUB:
		if x.D == DomNone || y.D == DomNone {
			return DomVal{}
		}
		if x.D == y.D {
			// p±p is probability-scaled, log+log is a log-domain
			// product, rate+rate aggregates, count±count is exact.
			return DomVal{D: x.D, ViaExp: viaExp}
		}
		// Cross-domain addition is the probmix bug; the value itself
		// is poisoned.
		return DomVal{D: DomMixed}
	case token.MUL:
		return DomVal{D: mulDomain(x.D, y.D), ViaExp: viaExp}
	case token.QUO:
		return DomVal{D: quoDomain(x.D, y.D), ViaExp: viaExp}
	}
	// Comparisons, %, bit operations: no scalar domain.
	return DomVal{}
}

// mulDomain is the (commutative) multiplication table.
func mulDomain(a, b Domain) Domain {
	if b < a {
		a, b = b, a
	}
	switch {
	case a == DomProb && b == DomProb:
		return DomProb // independent events compose
	case a == DomCount && b == DomCount:
		return DomCount
	case a == DomLogProb && b == DomCount:
		return DomLogProb // n·log p
	case a == DomRate && b == DomCount:
		return DomRate // aggregate rate over n sources
	case a == DomProb && b == DomRate:
		return DomRate // thinning a rate by a probability
	case a == DomProb && b == DomWeight:
		return DomWeight // importance-weighted probability mass
	}
	return DomNone
}

// quoDomain is the division table (a / b).
func quoDomain(a, b Domain) Domain {
	switch {
	case a == DomProb && b == DomProb:
		return DomProb // conditional probability
	case a == DomProb && b == DomCount:
		return DomProb // averaging probabilities
	case a == DomRate && b == DomCount:
		return DomRate // per-source rate
	case a == DomWeight && b == DomCount:
		return DomWeight
	case a == DomWeight && b == DomWeight:
		return DomProb // normalized weight
	}
	return DomNone
}

// call applies domain semantics for a call: the math-package
// sources/converters, RNG draws, then summarized intra-module callees,
// then a name-heuristic fallback.
func (t domRules) call(fl *domFlow, s varStore[DomVal], call *ast.CallExpr) DomVal {
	args := make([]DomVal, len(call.Args))
	for i, a := range call.Args {
		args[i] = fl.eval(s, a)
	}

	// Conversions pass the domain through (float64(n) keeps Count; the
	// integer rule in eval already handled the argument).
	if len(call.Args) == 1 {
		if tv, ok := fl.info.Types[call.Fun]; ok && tv.IsType() {
			return args[0]
		}
	}

	switch calleeName(fl.info, call) {
	case "math.Exp", "math.Exp2":
		// Back to linear space. The result's magnitude is unbounded
		// below: exp of a very negative log-probability is exactly the
		// value 1−x destroys. ViaExp records that provenance.
		d := DomNone
		if len(args) == 1 && args[0].D == DomLogProb {
			d = DomProb
		}
		return DomVal{D: d, ViaExp: true}
	case "math.Log", "math.Log2", "math.Log10", "math.Log1p":
		return DomVal{D: DomLogProb}
	case "math.Expm1":
		// exp(x)−1 is a signed complement, deliberately outside the
		// lattice; its whole point is avoiding the cancellation.
		return DomVal{}
	case "math.Sqrt", "math.Abs":
		if len(args) == 1 {
			return args[0]
		}
	case "math.Pow":
		if len(args) == 2 && args[0].D == DomProb {
			return DomVal{D: DomProb} // p^n stays in [0,1]
		}
		return DomVal{}
	case "math.Min", "math.Max", "builtin.min", "builtin.max":
		var v DomVal
		for _, a := range args {
			v = v.join(a)
		}
		return v
	case "builtin.len", "builtin.cap":
		return DomVal{D: DomCount}
	case "math/rand.Float64", "math/rand/v2.Float64",
		"math/rand.(method).Float64", "math/rand/v2.(method).Float64":
		return DomVal{D: DomProb} // a uniform draw is a probability
	}

	// Intra-module callee with an eager summary.
	if sum := t.calleeDomains(fl, call); sum != nil && len(sum.results) == 1 {
		return sum.results[0]
	}
	return DomVal{}
}

// calleeDomains resolves the eager domain summary of a direct
// intra-module call, falling back to nil for external callees.
func (domRules) calleeDomains(fl *domFlow, call *ast.CallExpr) *domainSummary {
	if fl.facts == nil {
		return nil
	}
	fn := calleeFunc(fl.info, call)
	if fn == nil {
		return nil
	}
	return fl.facts.domainsOf(fn)
}
