package lint

import (
	"go/ast"
	"go/types"
)

// Taint is a bit set of value properties the dataflow engine tracks.
type Taint uint8

const (
	// TaintMapOrder marks a value whose content (or element order)
	// depends on Go's randomized map iteration order: range keys and
	// values of a map, and anything derived from them without an
	// intervening sort.
	TaintMapOrder Taint = 1 << iota
	// TaintWallTime marks a value derived from the process wall clock
	// (time.Now, time.Since): anything it flows into stops being a
	// pure function of the seed.
	TaintWallTime
)

func (t Taint) String() string {
	switch {
	case t&TaintMapOrder != 0 && t&TaintWallTime != 0:
		return "maporder|walltime"
	case t&TaintMapOrder != 0:
		return "maporder"
	case t&TaintWallTime != 0:
		return "walltime"
	}
	return "none"
}

// taintVal is the lattice element: concrete taint kinds plus, in
// summary mode, the set of function parameters that flow here (bit i =
// param i). Join is bitwise union.
type taintVal struct {
	kinds  Taint
	params uint32
}

func (v taintVal) join(w taintVal) taintVal {
	return taintVal{v.kinds | w.kinds, v.params | w.params}
}

// FuncTaint is the result of running the taint engine over one function
// body: the taint of every expression node at the program point where
// it is evaluated, plus the joined taint of each result slot (used by
// the fact store to build cross-package summaries).
type FuncTaint varFlow[taintVal]

// Of returns the taint kinds of an expression node.
func (ft *FuncTaint) Of(e ast.Expr) Taint { return ft.exprs[e].kinds }

// analyzeBody runs the forward taint analysis over a function body to a
// fixed point (runFlow). info provides types, facts resolves callee
// summaries (may be nil), params seeds the parameter objects (used in
// summary mode: param i carries bit 1<<i), and results names the result
// objects for bare returns.
func analyzeBody(info *types.Info, facts *Facts, body *ast.BlockStmt,
	params map[types.Object]taintVal, resultObjs []types.Object) *FuncTaint {
	return (*FuncTaint)(runFlow[taintVal](taintRules{}, info, facts, body, params, resultObjs))
}

// taintRules is the taint lattice's side of the shared walker.
type taintRules struct{}

type taintFlow = varFlow[taintVal]

func (taintRules) declared(*taintFlow, types.Object) taintVal { return taintVal{} }

// slot: every value of x, y := f() carries the call's taint
// (conservative).
func (taintRules) slot(_ *taintFlow, _ ast.Expr, v taintVal, _ int) taintVal { return v }

func (taintRules) ranged(fl *taintFlow, n *ast.RangeStmt, x taintVal) (key, val taintVal) {
	if isMapType(fl.info.TypeOf(n.X)) {
		// Ranging a map is THE map-order source: key and value become
		// order-tainted regardless of the map's own taint.
		x.kinds |= TaintMapOrder
	}
	return x, x
}

// stored: a map is key-addressed, so writing entries in map-iteration
// order leaves the map's content deterministic and MapOrder does not
// propagate through m[k] = v (WallTime still does — the stored value
// itself is wall-clock data). Exception: slice-valued entries.
// m[k] = append(m[k], x) grows an ordered structure in iteration order,
// which is exactly the nondeterminism the analyzer hunts.
func (taintRules) stored(fl *taintFlow, l *ast.IndexExpr, v taintVal) taintVal {
	if mt := asMapType(fl.info.TypeOf(l.X)); mt != nil {
		if _, sliceElem := mt.Elem().Underlying().(*types.Slice); !sliceElem {
			v.kinds &^= TaintMapOrder
		}
	}
	return v
}

// compound: the LHS keeps its old taint and absorbs the RHS's — except
// integer accumulators. Integer arithmetic is exact and commutative, so
// a counter folded over a map range is the same whatever the iteration
// order; floats (not associative) and strings (concatenation order) do
// absorb taint.
func (taintRules) compound(fl *taintFlow, a *ast.AssignStmt, _, v taintVal) (taintVal, bool, bool) {
	if isIntegerType(fl.info.TypeOf(a.Lhs[0])) {
		return taintVal{}, false, false
	}
	return v, false, true
}

func (t taintRules) expr(fl *taintFlow, s varStore[taintVal], e ast.Expr) taintVal {
	switch e := e.(type) {
	case *ast.Ident:
		if obj := fl.info.ObjectOf(e); obj != nil {
			return s[obj]
		}
	case *ast.ParenExpr:
		return fl.eval(s, e.X)
	case *ast.UnaryExpr:
		return fl.eval(s, e.X) // includes <-ch: channel taint flows out
	case *ast.StarExpr:
		return fl.eval(s, e.X)
	case *ast.BinaryExpr:
		return fl.eval(s, e.X).join(fl.eval(s, e.Y))
	case *ast.IndexExpr:
		return fl.eval(s, e.X).join(fl.eval(s, e.Index))
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
		// Method values / package selectors carry no taint; field reads
		// inherit the base object's.
		if sel, ok := fl.info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			return fl.eval(s, e.X)
		}
		return taintVal{}
	case *ast.CompositeLit:
		var v taintVal
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				v = v.join(fl.eval(s, kv.Value))
				continue
			}
			v = v.join(fl.eval(s, el))
		}
		return v
	case *ast.TypeAssertExpr:
		return fl.eval(s, e.X)
	case *ast.CallExpr:
		return t.call(fl, s, e)
	case *ast.FuncLit:
		// Closure bodies are analyzed as separate functions; the value
		// itself is clean.
		return taintVal{}
	}
	return taintVal{}
}

// call applies taint semantics for a call expression: sources
// (time.Now/Since), sanitizers (sort.*, slices.Sort*), pass-throughs
// (append, copy, conversions) and summarized intra-module callees.
func (taintRules) call(fl *taintFlow, s varStore[taintVal], call *ast.CallExpr) taintVal {
	args := make([]taintVal, len(call.Args))
	for i, a := range call.Args {
		args[i] = fl.eval(s, a)
	}

	// Conversions: T(x) passes taint through.
	if len(call.Args) == 1 {
		if tv, ok := fl.info.Types[call.Fun]; ok && tv.IsType() {
			return args[0]
		}
	}

	switch calleeName(fl.info, call) {
	case "builtin.append":
		var v taintVal
		for _, a := range args {
			v = v.join(a)
		}
		return v
	case "builtin.len", "builtin.cap":
		return taintVal{} // sizes are order-independent
	case "builtin.min", "builtin.max":
		var v taintVal
		for _, a := range args {
			v = v.join(a)
		}
		return v
	case "time.Now", "time.Since":
		return taintVal{kinds: TaintWallTime}
	case "sort.Sort", "sort.Stable", "sort.Strings", "sort.Ints",
		"sort.Float64s", "sort.Slice", "sort.SliceStable",
		"slices.Sort", "slices.SortFunc", "slices.SortStableFunc":
		// Sorting re-establishes a canonical order: the map-order
		// taint of the sorted container is sanitized in place.
		if len(call.Args) > 0 {
			if obj := rootObj(fl.info, call.Args[0]); obj != nil {
				v := s[obj]
				v.kinds &^= TaintMapOrder
				// Param bits model order flow too — a sorted result no
				// longer depends on argument order.
				s.set(obj, v)
			}
		}
		return taintVal{}
	}

	// Intra-module callee with a computed summary: map argument taints
	// through the parameter-flow mask and add the callee's own result
	// taint.
	if fl.facts != nil {
		if fn := calleeFunc(fl.info, call); fn != nil {
			if sum := fl.facts.summaryOf(fn); sum != nil {
				var v taintVal
				for _, r := range sum.results {
					v.kinds |= r.kinds
					for p := 0; p < 32 && p < len(args); p++ {
						if r.params&(1<<p) != 0 {
							v = v.join(args[p])
						}
					}
				}
				// Method calls: bit 31 marks receiver flow.
				if sum.recvFlows {
					if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
						v = v.join(fl.eval(s, sel.X))
					}
				}
				return v
			}
		}
	}

	// Unknown callee (standard library or an indirect call through a
	// function value): conservatively assume every argument's taint —
	// and, for method calls, the receiver's — flows into the results.
	// This keeps chains like time.Since(start).Hours() or
	// fmt.Sprintf("%v", k) tainted.
	var v taintVal
	for _, a := range args {
		v = v.join(a)
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if tsel, ok := fl.info.Selections[sel]; ok && tsel.Kind() == types.MethodVal {
			v = v.join(fl.eval(s, sel.X))
		}
	}
	return v
}

// calleeName returns "pkgpath.Name" for direct calls to package-level
// functions and builtins, or "" otherwise.
func calleeName(info *types.Info, call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch o := info.Uses[fun].(type) {
		case *types.Builtin:
			return "builtin." + o.Name()
		case *types.Func:
			if o.Pkg() != nil && o.Type().(*types.Signature).Recv() == nil {
				return o.Pkg().Path() + "." + o.Name()
			}
		}
	case *ast.SelectorExpr:
		if o, ok := info.Uses[fun.Sel].(*types.Func); ok && o.Pkg() != nil {
			if o.Type().(*types.Signature).Recv() == nil {
				return o.Pkg().Path() + "." + o.Name()
			}
			// Methods: qualify by receiver type for the few stdlib
			// methods the engine knows about.
			return o.Pkg().Path() + ".(method)." + o.Name()
		}
	}
	return ""
}

// calleeFunc resolves the *types.Func of a direct call (function or
// method), or nil for indirect calls through function values.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// rootObj returns the variable at the base of an assignable expression:
// x, x.F, x[i], *x, x.F[i].G all root at x.
func rootObj(info *types.Info, e ast.Expr) types.Object {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return info.ObjectOf(x)
		case *ast.SelectorExpr:
			if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal {
				e = x.X
				continue
			}
			return nil
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// isMapType reports whether t (or what it points to) is a map.
func isMapType(t types.Type) bool {
	return asMapType(t) != nil
}

// asMapType returns t (or what it points to) as a *types.Map, or nil.
func asMapType(t types.Type) *types.Map {
	if t == nil {
		return nil
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	m, _ := t.Underlying().(*types.Map)
	return m
}
