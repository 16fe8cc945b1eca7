package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"maps"

	"mlec/internal/lint/cfg"
)

// This file is the part of a per-variable forward analysis that does
// not depend on what is being tracked: a store from variables to
// lattice values, the statement walker that moves values through
// assignments, declarations, sends, returns and range headers, and the
// run over the function's CFG (cfg.Solve). The taint engine (taint.go)
// and the domain engine (domainflow.go) are its two lattices; each
// supplies its expression semantics and the handful of statement rules
// where the lattices genuinely differ (flowRules).

// flowVal is a lattice element: comparable, with the zero value as
// bottom ("no information") and join as the merge at control-flow
// joins.
type flowVal[V any] interface {
	comparable
	join(V) V
}

// varStore maps variables to their current value. Bottom entries are
// removed, so an absent key and a zero value mean the same thing.
type varStore[V flowVal[V]] map[types.Object]V

// joinInto merges other into s, reporting whether s changed.
func (s varStore[V]) joinInto(other varStore[V]) bool {
	changed := false
	for k, v := range other {
		old := s[k]
		if nv := old.join(v); nv != old {
			s[k] = nv
			changed = true
		}
	}
	return changed
}

// set is the strong (killing) update of a plain variable.
func (s varStore[V]) set(obj types.Object, v V) {
	var zero V
	switch {
	case obj == nil:
	case v == zero:
		delete(s, obj)
	default:
		s[obj] = v
	}
}

// weakSet joins v into obj: the update for a write through a
// container, field or pointer, which may hold other values too.
func (s varStore[V]) weakSet(obj types.Object, v V) {
	var zero V
	if obj != nil && v != zero {
		s[obj] = s[obj].join(v)
	}
}

// flowRules is what a lattice supplies to the shared walker.
type flowRules[V flowVal[V]] interface {
	// expr computes the value of e in s, evaluating operands through
	// fl.eval so they are recorded too.
	expr(fl *varFlow[V], s varStore[V], e ast.Expr) V
	// declared is the value a variable takes when it is declared or
	// plainly assigned from an expression that carried none.
	declared(fl *varFlow[V], obj types.Object) V
	// slot is the value of result i of the multi-value expression e,
	// whose value as a whole is v (x, y := f(); return f()).
	slot(fl *varFlow[V], e ast.Expr, v V, i int) V
	// ranged gives the values a range statement assigns to its key and
	// value, x being the value of the ranged operand.
	ranged(fl *varFlow[V], n *ast.RangeStmt, x V) (key, val V)
	// stored adjusts a value on its way into l.X[l.Index].
	stored(fl *varFlow[V], l *ast.IndexExpr, v V) V
	// compound gives the value x takes after `x op= e` (old and v being
	// the values of x and e), and whether a plain variable is updated
	// strongly; ok false leaves the store alone.
	compound(fl *varFlow[V], a *ast.AssignStmt, old, v V) (nv V, strong, ok bool)
}

// varFlow is one run of a lattice over one function body: the inputs,
// and the per-expression values and per-result-slot joins it records.
type varFlow[V flowVal[V]] struct {
	info       *types.Info
	facts      *Facts // resolves callee summaries and seeds; may be nil
	rules      flowRules[V]
	resultObjs []types.Object // named results, for bare returns

	exprs   map[ast.Expr]V
	results []V
}

// runFlow runs rules over body to a fixed point. params seeds the entry
// state; resultObjs has one entry per result slot, the named result's
// object or nil. Every block is seeded: blocks generate values on their
// own (a range header, a math.Log call), so none can wait for an
// in-state change. Values are recorded in every pass and only ever
// joined, so the result is the join over all paths; a run that hits the
// solver's cap records nothing at all.
func runFlow[V flowVal[V]](rules flowRules[V], info *types.Info, facts *Facts, body *ast.BlockStmt,
	params map[types.Object]V, resultObjs []types.Object) *varFlow[V] {

	fl := &varFlow[V]{
		info: info, facts: facts, rules: rules, resultObjs: resultObjs,
		exprs: make(map[ast.Expr]V), results: make([]V, len(resultObjs)),
	}
	entry := varStore[V]{}
	for obj, v := range params {
		entry.set(obj, v)
	}
	transfer := func(b *cfg.Block, s varStore[V]) {
		for _, n := range b.Nodes {
			fl.node(s, n)
		}
	}
	sol := cfg.Solve(cfg.Build(body), cfg.Flow[varStore[V]]{
		Entry:    entry,
		Bottom:   func() varStore[V] { return varStore[V]{} },
		Clone:    maps.Clone[varStore[V]],
		Merge:    varStore[V].joinInto,
		Transfer: transfer,
	})
	if !sol.Converged {
		fl.exprs, fl.results = map[ast.Expr]V{}, make([]V, len(resultObjs))
		return fl
	}
	sol.Each(transfer)
	return fl
}

// eval computes the value of an expression and records it.
func (fl *varFlow[V]) eval(s varStore[V], e ast.Expr) V {
	v := fl.rules.expr(fl, s, e)
	var zero V
	if v != zero {
		fl.exprs[e] = fl.exprs[e].join(v)
	}
	return v
}

// joinResult joins v into result slot i, when there is one.
func (fl *varFlow[V]) joinResult(i int, v V) {
	if i < len(fl.results) {
		fl.results[i] = fl.results[i].join(v)
	}
}

// node applies one CFG node to the store.
func (fl *varFlow[V]) node(s varStore[V], n ast.Node) {
	switch n := n.(type) {
	case ast.Expr:
		fl.eval(s, n)
	case *ast.AssignStmt:
		fl.assign(s, n)
	case *ast.DeclStmt:
		gd, ok := n.Decl.(*ast.GenDecl)
		if !ok {
			return
		}
		for _, spec := range gd.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				var v V
				if i < len(vs.Values) {
					v = fl.eval(s, vs.Values[i])
				}
				fl.bind(s, fl.info.Defs[name], v)
			}
		}
	case *ast.ExprStmt:
		fl.eval(s, n.X)
	case *ast.IncDecStmt:
		fl.eval(s, n.X)
	case *ast.SendStmt:
		v := fl.eval(s, n.Value)
		fl.eval(s, n.Chan)
		// A send puts the value into the channel; receives read it back.
		s.weakSet(rootObj(fl.info, n.Chan), v)
	case *ast.ReturnStmt:
		switch {
		case len(n.Results) == 0:
			// Bare return: named results carry their current values.
			for i, obj := range fl.resultObjs {
				if obj != nil {
					fl.joinResult(i, s[obj])
				}
			}
		case len(n.Results) == 1 && len(fl.results) > 1:
			// return f() with f returning several values.
			v := fl.eval(s, n.Results[0])
			for i := range fl.results {
				fl.joinResult(i, fl.rules.slot(fl, n.Results[0], v, i))
			}
		default:
			for i, e := range n.Results {
				fl.joinResult(i, fl.eval(s, e))
			}
		}
	case *ast.RangeStmt:
		key, val := fl.rules.ranged(fl, n, fl.eval(s, n.X))
		if n.Key != nil {
			fl.assignTo(s, n.Key, key, n.Tok == token.DEFINE)
		}
		if n.Value != nil {
			fl.assignTo(s, n.Value, val, n.Tok == token.DEFINE)
		}
	case *ast.GoStmt:
		fl.eval(s, n.Call)
	case *ast.DeferStmt:
		fl.eval(s, n.Call)
	}
	// Other statements hold no top-level expressions to evaluate (the
	// CFG lifts conditions and bodies into their own blocks).
}

func (fl *varFlow[V]) assign(s varStore[V], a *ast.AssignStmt) {
	define := a.Tok == token.DEFINE
	if a.Tok != token.ASSIGN && !define {
		// Compound assignment (+=, -=, …).
		v := fl.eval(s, a.Rhs[0])
		old := fl.eval(s, a.Lhs[0])
		nv, strong, ok := fl.rules.compound(fl, a, old, v)
		if !ok {
			return
		}
		obj := rootObj(fl.info, a.Lhs[0])
		if _, isIdent := ast.Unparen(a.Lhs[0]).(*ast.Ident); strong && isIdent {
			s.set(obj, nv)
		} else {
			s.weakSet(obj, nv)
		}
		return
	}
	if len(a.Rhs) == 1 && len(a.Lhs) > 1 {
		// x, y := f()
		v := fl.eval(s, a.Rhs[0])
		for i, l := range a.Lhs {
			fl.assignTo(s, l, fl.rules.slot(fl, a.Rhs[0], v, i), define)
		}
		return
	}
	for i, l := range a.Lhs {
		var v V
		if i < len(a.Rhs) {
			v = fl.eval(s, a.Rhs[i])
		}
		fl.assignTo(s, l, v, define)
	}
}

// bind is the strong update of a declared or plainly assigned variable,
// falling back to the lattice's declared value when v carries nothing.
func (fl *varFlow[V]) bind(s varStore[V], obj types.Object, v V) {
	var zero V
	if v == zero {
		v = fl.rules.declared(fl, obj)
	}
	s.set(obj, v)
}

// assignTo writes v into an assignable expression. Plain identifiers
// get a strong (killing) update; element, field and pointer writes
// reach the root variable weakly — the container may hold other values
// too, but once a value is inside, reads conservatively see it.
func (fl *varFlow[V]) assignTo(s varStore[V], lhs ast.Expr, v V, define bool) {
	switch l := lhs.(type) {
	case *ast.Ident:
		if l.Name == "_" {
			return
		}
		obj := fl.info.Defs[l]
		if u := fl.info.Uses[l]; !define && u != nil {
			obj = u
		}
		fl.bind(s, obj, v)
	case *ast.IndexExpr:
		fl.eval(s, l.Index)
		s.weakSet(rootObj(fl.info, l.X), fl.rules.stored(fl, l, v))
	case *ast.SelectorExpr, *ast.StarExpr:
		s.weakSet(rootObj(fl.info, lhs), v)
	case *ast.ParenExpr:
		fl.assignTo(s, l.X, v, define)
	}
}
