package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"maps"

	"mlec/internal/lint/cfg"
)

// This file implements the value-range half of the bce analysis family
// (the analyzers live in hotbce.go and hotinline.go, the compiler
// cross-check in oracle.go). The engine answers one question per
// indexing or slicing site in a function: can the bounds check be
// proven eliminable from the length facts visible on every path to the
// site? It is the static twin of the gc compiler's prove pass, scoped
// to the idioms the //mlec:hot kernels actually use, and `mlecvet
// -compiler` keeps the two honest against each other.
//
// # The fact lattice
//
// A boundsState is a conjunction of facts over slice references:
//
//	minLen[r] = c    len(r) >= c          (from `len(r) >= c` guards,
//	                                       make(T, c), reslicing, and
//	                                       index postconditions)
//	lenEq{a, b}      len(a) == len(b)     (from `len(a) != len(b)`
//	                                       early-return guards and
//	                                       slice-copy assignments)
//	ltLen[i][r]      i < len(r)           (from range-loop keys and
//	                                       `i < len(r)` conditions)
//	nonNeg[i]        i >= 0               (range keys, non-negative
//	                                       constants, `i >= 0` guards)
//
// A reference r is a local or parameter object, optionally extended by
// a pure field path (`src`, `e.queue`). Facts meet by intersection at
// control-flow joins (a fact holds only if it holds on every incoming
// edge), so the in-state of every block only shrinks and the fixed
// point terminates without widening.
//
// # Transfer highlights
//
//   - Branch conditions refine the true/false out-edges; `&&` refines
//     its right operand and the true edge, `||` the false edge. The
//     cfg builder emits the true edge first (locked by
//     TestCondSuccsOrderTrueFirst), which is what makes two-successor
//     refinement sound.
//   - A guard whose body leaves the function (`if len(a) != len(b) {
//     return err }`) leaves len(a) == len(b) on the fall-through path —
//     this is the false-edge refinement of the condition, no special
//     case needed.
//   - Reslicing transfers: after `s = s[c:]`, minLen(s) drops by c;
//     `s = s[lo:hi]` with constant bounds pins the length exactly.
//   - Postconditions: execution continues past `s[c]` only when
//     len(s) > c, so every successful index strengthens the state —
//     which is exactly why the idiomatic hint `_ = s[n-1]` placed
//     before a loop proves the loop body's indexes.
//   - A byte-typed index into an array of 256 or more entries can
//     never fail; this is the product-table rule the gf256 kernels
//     lean on.
//   - Calls cannot change the length of a local slice (slices are
//     passed by value), so local facts survive calls; facts about
//     field paths and about locals whose address escapes are killed at
//     every call and send.
//
// The engine only judges; reporting policy (hot scope, loop blocks
// only) lives in the hotbce analyzer.

// A sliceRef names a trackable slice/array/string reference: a
// variable, optionally extended by a chain of field selections. The
// zero path means the object itself.
type sliceRef struct {
	obj  types.Object
	path string // "" or ".field" chains, e.g. ".queue"
}

// resolveRef resolves e to a sliceRef when e is an identifier or a
// pure field-selection chain rooted at one.
func resolveRef(info *types.Info, e ast.Expr) (sliceRef, bool) {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := info.ObjectOf(x)
		if _, ok := obj.(*types.Var); ok {
			return sliceRef{obj: obj}, true
		}
	case *ast.SelectorExpr:
		sel, ok := info.Selections[x]
		if !ok || sel.Kind() != types.FieldVal {
			return sliceRef{}, false
		}
		base, ok := resolveRef(info, x.X)
		if !ok {
			return sliceRef{}, false
		}
		return sliceRef{obj: base.obj, path: base.path + "." + x.Sel.Name}, true
	}
	return sliceRef{}, false
}

// boundsState is one program point's fact set. A nil map means "no
// facts of that kind". States are value-ish: mutate only via the
// methods, copy with clone.
type boundsState struct {
	minLen map[sliceRef]int
	lenEq  map[sliceRef]map[sliceRef]bool
	ltLen  map[types.Object]map[sliceRef]bool
	nonNeg map[types.Object]bool
}

func newBoundsState() *boundsState { return &boundsState{} }

func (s *boundsState) clone() *boundsState {
	return &boundsState{
		minLen: maps.Clone(s.minLen),
		lenEq:  cloneSets(s.lenEq),
		ltLen:  cloneSets(s.ltLen),
		nonNeg: maps.Clone(s.nonNeg),
	}
}

// cloneSets deep-copies a map of reference sets (nil stays nil).
func cloneSets[K comparable](m map[K]map[sliceRef]bool) map[K]map[sliceRef]bool {
	c := maps.Clone(m)
	for k, set := range c {
		c[k] = maps.Clone(set)
	}
	return c
}

func (s *boundsState) setMinLen(r sliceRef, n int) {
	if n <= 0 {
		return
	}
	if s.minLen == nil {
		s.minLen = make(map[sliceRef]int)
	}
	if n > s.minLen[r] {
		s.minLen[r] = n
	}
}

func (s *boundsState) addLenEq(a, b sliceRef) {
	if a == b {
		return
	}
	if s.lenEq == nil {
		s.lenEq = make(map[sliceRef]map[sliceRef]bool)
	}
	for _, pair := range [2][2]sliceRef{{a, b}, {b, a}} {
		set := s.lenEq[pair[0]]
		if set == nil {
			set = make(map[sliceRef]bool)
			s.lenEq[pair[0]] = set
		}
		set[pair[1]] = true
	}
}

func (s *boundsState) addLtLen(i types.Object, r sliceRef) {
	if s.ltLen == nil {
		s.ltLen = make(map[types.Object]map[sliceRef]bool)
	}
	set := s.ltLen[i]
	if set == nil {
		set = make(map[sliceRef]bool)
		s.ltLen[i] = set
	}
	set[r] = true
}

func (s *boundsState) setNonNeg(i types.Object) {
	if s.nonNeg == nil {
		s.nonNeg = make(map[types.Object]bool)
	}
	s.nonNeg[i] = true
}

// sameLenGroup reports the equality component of r (always including r
// itself) by walking the lenEq adjacency.
func (s *boundsState) sameLenGroup(r sliceRef) map[sliceRef]bool {
	group := map[sliceRef]bool{r: true}
	if s.lenEq == nil {
		return group
	}
	work := []sliceRef{r}
	for len(work) > 0 {
		cur := work[len(work)-1]
		work = work[:len(work)-1]
		for next := range s.lenEq[cur] {
			if !group[next] {
				group[next] = true
				work = append(work, next)
			}
		}
	}
	return group
}

// minLenOf returns the best lower bound on len(r), folding in length
// equalities: the max bound over r's equality component.
func (s *boundsState) minLenOf(r sliceRef) int {
	best := s.minLen[r]
	if s.lenEq == nil {
		return best
	}
	for m := range s.sameLenGroup(r) {
		if v := s.minLen[m]; v > best {
			best = v
		}
	}
	return best
}

// ltLenHolds reports i < len(r), folding in length equalities.
func (s *boundsState) ltLenHolds(i types.Object, r sliceRef) bool {
	set := s.ltLen[i]
	if len(set) == 0 {
		return false
	}
	if set[r] {
		return true
	}
	for m := range s.sameLenGroup(r) {
		if set[m] {
			return true
		}
	}
	return false
}

// killRef removes every fact about r and about any reference that
// extends r's path (killing `e` also kills `e.queue`). When r is a
// bare object it also drops the object's integer facts.
func (s *boundsState) killRef(r sliceRef) {
	covers := func(m sliceRef) bool {
		if m.obj != r.obj {
			return false
		}
		if r.path == "" {
			return true
		}
		return m.path == r.path || (len(m.path) > len(r.path) && m.path[:len(r.path)] == r.path && m.path[len(r.path)] == '.')
	}
	for m := range s.minLen {
		if covers(m) {
			delete(s.minLen, m)
		}
	}
	for a, set := range s.lenEq {
		if covers(a) {
			delete(s.lenEq, a)
			continue
		}
		for b := range set {
			if covers(b) {
				delete(set, b)
			}
		}
	}
	for i, set := range s.ltLen {
		if r.path == "" && i == r.obj {
			delete(s.ltLen, i)
			continue
		}
		for m := range set {
			if covers(m) {
				delete(set, m)
			}
		}
	}
	if r.path == "" {
		delete(s.nonNeg, r.obj)
	}
}

// killCalls drops the facts a function call can invalidate: every
// field-path reference (the callee may reach the struct through
// another alias) and every unstable object (address taken or captured
// by a closure).
func (s *boundsState) killCalls(unstable map[types.Object]bool) {
	var doomed []sliceRef
	for m := range s.minLen {
		if m.path != "" || unstable[m.obj] {
			doomed = append(doomed, m)
		}
	}
	for a := range s.lenEq {
		if a.path != "" || unstable[a.obj] {
			doomed = append(doomed, a)
		}
	}
	for i, set := range s.ltLen {
		if unstable[i] {
			delete(s.ltLen, i)
			continue
		}
		for m := range set {
			if m.path != "" || unstable[m.obj] {
				delete(set, m)
			}
		}
	}
	for i := range s.nonNeg {
		if unstable[i] {
			delete(s.nonNeg, i)
		}
	}
	for _, r := range doomed {
		s.killRef(r)
	}
}

// meetInto intersects other into s and reports whether s changed.
func (s *boundsState) meetInto(other *boundsState) bool {
	changed := false
	for r, v := range s.minLen {
		ov := other.minLen[r]
		if ov < v {
			if ov <= 0 {
				delete(s.minLen, r)
			} else {
				s.minLen[r] = ov
			}
			changed = true
		}
	}
	for a, set := range s.lenEq {
		oset := other.lenEq[a]
		for b := range set {
			if !oset[b] {
				delete(set, b)
				changed = true
			}
		}
		if len(set) == 0 {
			delete(s.lenEq, a)
		}
	}
	for i, set := range s.ltLen {
		oset := other.ltLen[i]
		for r := range set {
			if !oset[r] {
				delete(set, r)
				changed = true
			}
		}
		if len(set) == 0 {
			delete(s.ltLen, i)
		}
	}
	for i := range s.nonNeg {
		if !other.nonNeg[i] {
			delete(s.nonNeg, i)
			changed = true
		}
	}
	return changed
}

// A boundsSite is one indexing or slicing expression and the engine's
// verdict on it.
type boundsSite struct {
	node   ast.Node
	kind   string // "index" or "slice"
	base   string // rendering of the indexed expression
	expr   string // rendering of the whole site
	proven bool
	inLoop bool
	// need is the constant length the base must be proven to have for
	// the site to be eliminable, or 0 when the index is not constant.
	need int
}

// boundsEngine runs the dataflow over one function body.
type boundsEngine struct {
	info     *types.Info
	unstable map[types.Object]bool
}

// analyzeBounds classifies every index and slice expression of body.
// Sites inside function literals are not analyzed (a closure body is
// its own flow graph and is never a //mlec:hot kernel in this tree).
// The entry state is empty (no facts about parameters), facts meet by
// intersection, and branch conditions and range headers refine the
// out-edges (edgeState); verdicts are recorded in a second pass from
// the fixed in-states of the reachable blocks. A body the solver gives
// up on yields no sites at all, so nothing is reported or claimed.
func analyzeBounds(info *types.Info, body *ast.BlockStmt) []boundsSite {
	if body == nil {
		return nil
	}
	en := &boundsEngine{info: info, unstable: make(map[types.Object]bool)}
	en.prepare(body)
	g := cfg.Build(body)
	loops := g.LoopBlocks()
	sol := cfg.Solve(g, cfg.Flow[*boundsState]{
		Entry:    newBoundsState(),
		Clone:    (*boundsState).clone,
		Merge:    (*boundsState).meetInto,
		Transfer: func(b *cfg.Block, st *boundsState) { en.transfer(b, st, nil) },
		Edge:     en.edgeState,
	})
	var sites []boundsSite
	sol.Each(func(b *cfg.Block, st *boundsState) {
		inLoop := loops[b]
		en.transfer(b, st, func(site boundsSite) {
			site.inLoop = inLoop
			sites = append(sites, site)
		})
	})
	return sites
}

// prepare marks the objects whose facts cannot survive a call: locals
// whose address is taken and variables referenced from closures (the
// closure may run inside any callee and reassign them).
func (en *boundsEngine) prepare(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if obj := rootObj(en.info, n.X); obj != nil {
					en.unstable[obj] = true
				}
			}
		case *ast.FuncLit:
			ast.Inspect(n.Body, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok {
					if v, ok := en.info.ObjectOf(id).(*types.Var); ok {
						en.unstable[v] = true
					}
				}
				return true
			})
			return false
		}
		return true
	})
}

// transfer runs st through the block's nodes in execution order,
// mutating st and (when record is non-nil) emitting a verdict for each
// index/slice site encountered.
func (en *boundsEngine) transfer(b *cfg.Block, st *boundsState, record func(boundsSite)) {
	for _, n := range b.Nodes {
		switch n := n.(type) {
		case *ast.AssignStmt:
			en.transferAssign(n, st, record)
		case *ast.DeclStmt:
			if gd, ok := n.Decl.(*ast.GenDecl); ok {
				for _, spec := range gd.Specs {
					vs, ok := spec.(*ast.ValueSpec)
					if !ok {
						continue
					}
					for _, v := range vs.Values {
						en.checkExpr(st, v, record)
					}
					en.killAfterCalls(st, n)
					if len(vs.Values) == len(vs.Names) {
						for i, name := range vs.Names {
							en.assignOne(st, name, vs.Values[i])
						}
					} else {
						for _, name := range vs.Names {
							en.killTarget(st, name)
						}
					}
				}
			}
		case *ast.IncDecStmt:
			en.checkExpr(st, n.X, record)
			if obj := identObj(en.info, n.X); obj != nil {
				// i++ preserves i >= 0 but breaks i < len(s); i--
				// breaks both.
				wasNonNeg := st.nonNeg[obj] && n.Tok == token.INC
				st.killRef(sliceRef{obj: obj})
				if wasNonNeg {
					st.setNonNeg(obj)
				}
			} else if r, ok := resolveRef(en.info, n.X); ok {
				st.killRef(r)
			}
		case *ast.RangeStmt:
			en.checkExpr(st, n.X, record)
			// Key/value effects belong to the loop edges; edgeState
			// applies them so the done edge keeps no stale relation.
		case *ast.ExprStmt:
			en.checkExpr(st, n.X, record)
			en.killAfterCalls(st, n)
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				en.checkExpr(st, r, record)
			}
			en.killAfterCalls(st, n)
		case *ast.SendStmt:
			en.checkExpr(st, n.Chan, record)
			en.checkExpr(st, n.Value, record)
			st.killCalls(en.unstable)
		case *ast.GoStmt:
			en.checkExpr(st, n.Call, record)
			st.killCalls(en.unstable)
		case *ast.DeferStmt:
			en.checkExpr(st, n.Call, record)
			st.killCalls(en.unstable)
		case ast.Expr:
			// A condition or switch tag evaluated in this block.
			en.checkExpr(st, n, record)
			en.killAfterCalls(st, n)
		}
	}
}

// transferAssign handles assignments and short variable declarations.
func (en *boundsEngine) transferAssign(n *ast.AssignStmt, st *boundsState, record func(boundsSite)) {
	for _, r := range n.Rhs {
		en.checkExpr(st, r, record)
	}
	for _, l := range n.Lhs {
		en.checkExpr(st, l, record)
	}
	en.killAfterCalls(st, n)
	if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
		// Compound assignment (+=, -=, …): conservatively drop the
		// target's facts.
		for _, l := range n.Lhs {
			en.killTarget(st, l)
		}
		return
	}
	if len(n.Lhs) != len(n.Rhs) {
		// Tuple from a call or map/chan read: nothing to learn.
		for _, l := range n.Lhs {
			en.killTarget(st, l)
		}
		return
	}
	// Parallel assignment: the RHS values are all read before any LHS
	// is written, so gens are computed against the pre-kill state.
	type gen struct {
		min int
		eq  sliceRef
		has bool
	}
	gens := make([]gen, len(n.Lhs))
	for i, r := range n.Rhs {
		gens[i].min, gens[i].eq, gens[i].has = en.rhsFacts(st, r)
	}
	nonNegs := make([]bool, len(n.Lhs))
	for i, r := range n.Rhs {
		if c, ok := constIntVal(en.info, r); ok && c >= 0 {
			nonNegs[i] = true
		}
	}
	for _, l := range n.Lhs {
		en.killTarget(st, l)
	}
	for i, l := range n.Lhs {
		lr, ok := resolveRef(en.info, l)
		if !ok {
			continue
		}
		if gens[i].min > 0 {
			st.setMinLen(lr, gens[i].min)
		}
		if gens[i].has {
			st.addLenEq(lr, gens[i].eq)
		}
		if nonNegs[i] && lr.path == "" {
			st.setNonNeg(lr.obj)
		}
	}
}

// assignOne applies `name := value` (var declarations with initializers).
func (en *boundsEngine) assignOne(st *boundsState, name *ast.Ident, value ast.Expr) {
	min, eq, has := en.rhsFacts(st, value)
	c, isConst := constIntVal(en.info, value)
	en.killTarget(st, name)
	lr, ok := resolveRef(en.info, name)
	if !ok {
		return
	}
	if min > 0 {
		st.setMinLen(lr, min)
	}
	if has {
		st.addLenEq(lr, eq)
	}
	if isConst && c >= 0 && lr.path == "" {
		st.setNonNeg(lr.obj)
	}
}

// rhsFacts derives length facts for the value of r: a minimum length,
// and optionally a reference the value shares its length with.
func (en *boundsEngine) rhsFacts(st *boundsState, r ast.Expr) (min int, eq sliceRef, hasEq bool) {
	switch x := ast.Unparen(r).(type) {
	case *ast.CallExpr:
		// make([]T, n) with constant n.
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && id.Name == "make" {
			if _, isBuiltin := en.info.ObjectOf(id).(*types.Builtin); isBuiltin && len(x.Args) >= 2 {
				if c, ok := constIntVal(en.info, x.Args[1]); ok && c > 0 {
					return int(c), sliceRef{}, false
				}
			}
		}
	case *ast.SliceExpr:
		base, ok := resolveRef(en.info, x.X)
		if !ok {
			return 0, sliceRef{}, false
		}
		lo := int64(0)
		if x.Low != nil {
			c, ok := constIntVal(en.info, x.Low)
			if !ok {
				return 0, sliceRef{}, false
			}
			lo = c
		}
		if x.High != nil {
			if hi, ok := constIntVal(en.info, x.High); ok && hi >= lo {
				return int(hi - lo), sliceRef{}, false
			}
			return 0, sliceRef{}, false
		}
		if m := st.minLenOf(base); m > int(lo) {
			return m - int(lo), sliceRef{}, false
		}
	case *ast.Ident, *ast.SelectorExpr:
		if ref, ok := resolveRef(en.info, x); ok {
			if t := en.info.TypeOf(x); t != nil {
				if _, isSlice := t.Underlying().(*types.Slice); isSlice {
					return st.minLenOf(ref), ref, true
				}
			}
		}
	}
	return 0, sliceRef{}, false
}

// killTarget drops the facts invalidated by writing through l.
func (en *boundsEngine) killTarget(st *boundsState, l ast.Expr) {
	if id, ok := ast.Unparen(l).(*ast.Ident); ok && id.Name == "_" {
		return
	}
	if r, ok := resolveRef(en.info, l); ok {
		st.killRef(r)
		return
	}
	if _, ok := ast.Unparen(l).(*ast.IndexExpr); ok {
		return // s[i] = v changes no length
	}
	// *p = v (or any other unresolvable target) may rewrite any
	// unstable variable or field.
	st.killCalls(en.unstable)
}

// killAfterCalls applies the call kill set when the subtree performs
// at least one real call (conversions and the pure builtins len, cap,
// copy, append, min, max do not invalidate length facts).
func (en *boundsEngine) killAfterCalls(st *boundsState, n ast.Node) {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if found {
			return false
		}
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isRealCall(en.info, call) {
			found = true
			return false
		}
		return true
	})
	if found {
		st.killCalls(en.unstable)
	}
}

// isRealCall reports whether call invokes a function (rather than a
// conversion or a length-safe builtin).
func isRealCall(info *types.Info, call *ast.CallExpr) bool {
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return false // conversion
	}
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, ok := info.ObjectOf(id).(*types.Builtin); ok {
			switch id.Name {
			case "len", "cap", "copy", "append", "min", "max", "delete",
				"real", "imag", "complex", "print", "println":
				return false
			}
			// make, new: allocate, mutate nothing. panic/recover/clear:
			// treat as real (panic ends the path anyway).
			switch id.Name {
			case "make", "new":
				return false
			}
		}
	}
	return true
}

// edgeState returns the state that flows along b's si-th out-edge:
// out refined by the block's trailing condition or range header. The
// cfg builder emits the true/body edge first.
func (en *boundsEngine) edgeState(b *cfg.Block, si int, out *boundsState) *boundsState {
	if len(b.Nodes) == 0 {
		return out
	}
	switch last := b.Nodes[len(b.Nodes)-1].(type) {
	case *ast.RangeStmt:
		st := out.clone()
		// The header reassigns key/value on every entry to the block,
		// so both edges drop their old facts.
		if last.Key != nil {
			en.killTarget(st, last.Key)
		}
		if last.Value != nil {
			en.killTarget(st, last.Value)
		}
		if si != 0 {
			return st // done edge: kills only
		}
		// Body edge: the operand is non-empty and the key indexes it.
		ref, refOK := resolveRef(en.info, last.X)
		if refOK && isLenType(en.info.TypeOf(last.X)) {
			st.setMinLen(ref, 1)
		}
		if key := identObj(en.info, last.Key); key != nil {
			st.setNonNeg(key)
			if refOK && isLenType(en.info.TypeOf(last.X)) {
				st.addLtLen(key, ref)
			}
		}
		return st
	case ast.Expr:
		// A two-successor block ending in an expression is a condition
		// with the true edge first. A switch tag also ends its block
		// but branches to case blocks, which do not mean "tag is true".
		if len(b.Succs) != 2 || b.Succs[0].Kind == "switch.case" {
			return out
		}
		st := out.clone()
		en.refineCond(st, last, si == 0)
		return st
	}
	return out
}

// isLenType reports whether t supports len with an index relation
// (slice, array, pointer-to-array, or string).
func isLenType(t types.Type) bool {
	if t == nil {
		return false
	}
	switch u := t.Underlying().(type) {
	case *types.Slice, *types.Array:
		return true
	case *types.Pointer:
		_, ok := u.Elem().Underlying().(*types.Array)
		return ok
	case *types.Basic:
		return u.Info()&types.IsString != 0
	}
	return false
}

// refineCond strengthens st with the knowledge that e evaluated to
// isTrue. Unknown shapes refine nothing (sound: fewer facts).
func (en *boundsEngine) refineCond(st *boundsState, e ast.Expr, isTrue bool) {
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.UnaryExpr:
		if x.Op == token.NOT {
			en.refineCond(st, x.X, !isTrue)
		}
		return
	case *ast.BinaryExpr:
		switch x.Op {
		case token.LAND:
			if isTrue {
				en.refineCond(st, x.X, true)
				en.refineCond(st, x.Y, true)
			}
			return
		case token.LOR:
			if !isTrue {
				en.refineCond(st, x.X, false)
				en.refineCond(st, x.Y, false)
			}
			return
		case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
			en.refineCmp(st, x, isTrue)
			return
		}
	}
}

// refineCmp handles one comparison under a known truth value.
func (en *boundsEngine) refineCmp(st *boundsState, x *ast.BinaryExpr, isTrue bool) {
	op := x.Op
	if !isTrue {
		op = negateCmp(op)
	}
	l, r := x.X, x.Y
	// Normalize so interesting shapes have len() or the variable on
	// the left: a OP b <=> b mirror(OP) a.
	lRef, lIsLen := lenArgRef(en.info, l)
	rRef, rIsLen := lenArgRef(en.info, r)
	switch {
	case lIsLen && rIsLen:
		if op == token.EQL {
			st.addLenEq(lRef, rRef)
		}
	case lIsLen:
		if c, ok := constIntVal(en.info, r); ok {
			applyLenBound(st, lRef, op, c)
		}
	case rIsLen:
		if c, ok := constIntVal(en.info, l); ok {
			applyLenBound(st, rRef, mirrorCmp(op), c)
		} else if i := identObj(en.info, l); i != nil {
			// i OP len(r)
			if op == token.LSS {
				st.addLtLen(i, rRef)
			}
		}
	default:
		if i := identObj(en.info, l); i != nil {
			if c, ok := constIntVal(en.info, r); ok {
				switch {
				case op == token.GEQ && c >= 0, op == token.GTR && c >= -1, op == token.EQL && c >= 0:
					st.setNonNeg(i)
				}
			}
		}
		if i := identObj(en.info, r); i != nil {
			if c, ok := constIntVal(en.info, l); ok {
				op = mirrorCmp(op)
				switch {
				case op == token.GEQ && c >= 0, op == token.GTR && c >= -1, op == token.EQL && c >= 0:
					st.setNonNeg(i)
				}
			}
		}
	}
	// i < len(s) in the mirrored direction: len(s) > i.
	if lIsLen && !rIsLen {
		if i := identObj(en.info, r); i != nil && op == token.GTR {
			st.addLtLen(i, lRef)
		}
	}
}

// applyLenBound records len(ref) OP c as a minimum-length fact.
func applyLenBound(st *boundsState, ref sliceRef, op token.Token, c int64) {
	switch op {
	case token.GEQ:
		st.setMinLen(ref, int(c))
	case token.GTR:
		st.setMinLen(ref, int(c)+1)
	case token.EQL:
		st.setMinLen(ref, int(c))
	case token.NEQ:
		if c == 0 {
			st.setMinLen(ref, 1) // len is never negative
		}
	}
}

// negateCmp returns the comparison that holds when op is false.
func negateCmp(op token.Token) token.Token {
	switch op {
	case token.EQL:
		return token.NEQ
	case token.NEQ:
		return token.EQL
	case token.LSS:
		return token.GEQ
	case token.LEQ:
		return token.GTR
	case token.GTR:
		return token.LEQ
	case token.GEQ:
		return token.LSS
	}
	return op
}

// mirrorCmp returns the comparison with swapped operands.
func mirrorCmp(op token.Token) token.Token {
	switch op {
	case token.LSS:
		return token.GTR
	case token.LEQ:
		return token.GEQ
	case token.GTR:
		return token.LSS
	case token.GEQ:
		return token.LEQ
	}
	return op
}

// lenArgRef matches len(x) with x a trackable reference.
func lenArgRef(info *types.Info, e ast.Expr) (sliceRef, bool) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return sliceRef{}, false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "len" {
		return sliceRef{}, false
	}
	if _, isBuiltin := info.ObjectOf(id).(*types.Builtin); !isBuiltin {
		return sliceRef{}, false
	}
	return resolveRef(info, call.Args[0])
}

// identObj resolves a bare identifier to its variable object.
func identObj(info *types.Info, e ast.Expr) types.Object {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if v, ok := info.ObjectOf(id).(*types.Var); ok {
		return v
	}
	return nil
}

// constIntVal evaluates e as a compile-time integer constant.
func constIntVal(info *types.Info, e ast.Expr) (int64, bool) {
	tv, ok := info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.Int {
		return 0, false
	}
	return constant.Int64Val(tv.Value)
}

// checkExpr walks e recording a verdict for every index/slice site,
// threading short-circuit refinement through && and || so a guard in
// the left operand protects sites in the right.
func (en *boundsEngine) checkExpr(st *boundsState, e ast.Expr, record func(boundsSite)) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.BinaryExpr:
			if x.Op == token.LAND || x.Op == token.LOR {
				en.checkExpr(st, x.X, record)
				refined := st.clone()
				en.refineCond(refined, x.X, x.Op == token.LAND)
				en.checkExpr(refined, x.Y, record)
				// Postconditions learned inside the operands are
				// control-dependent; keep st unchanged (conservative).
				return false
			}
		case *ast.IndexExpr:
			en.checkExpr(st, x.X, record)
			en.checkExpr(st, x.Index, record)
			en.judgeIndex(st, x, record)
			return false
		case *ast.SliceExpr:
			en.checkExpr(st, x.X, record)
			en.checkExpr(st, x.Low, record)
			en.checkExpr(st, x.High, record)
			en.checkExpr(st, x.Max, record)
			en.judgeSlice(st, x, record)
			return false
		}
		return true
	})
}

// judgeIndex records the verdict for x and, on the assumption the
// program continues, learns the index postcondition.
func (en *boundsEngine) judgeIndex(st *boundsState, x *ast.IndexExpr, record func(boundsSite)) {
	baseT := en.info.TypeOf(x.X)
	if baseT == nil {
		return
	}
	var arr *types.Array
	switch u := baseT.Underlying().(type) {
	case *types.Map:
		return // map indexing is not bounds-checked
	case *types.Array:
		arr = u
	case *types.Pointer:
		a, ok := u.Elem().Underlying().(*types.Array)
		if !ok {
			return
		}
		arr = a
	case *types.Slice:
	case *types.Basic:
		if u.Info()&types.IsString == 0 {
			return
		}
	default:
		return
	}

	ref, refOK := resolveRef(en.info, x.X)
	c, isConst := constIntVal(en.info, x.Index)
	idxObj := identObj(en.info, x.Index)
	proven := false
	need := 0
	switch {
	case arr != nil && isConst:
		// Constant index into an array: checked at compile time.
		proven = c >= 0 && c < arr.Len()
	case arr != nil && isByteTyped(en.info.TypeOf(x.Index)) && arr.Len() >= 256:
		// A byte can never exceed a 256-entry table.
		proven = true
	case arr != nil:
		proven = idxObj != nil && st.nonNeg[idxObj] && refOK && st.ltLenHolds(idxObj, ref)
	case isConst:
		need = int(c) + 1
		proven = c >= 0 && refOK && st.minLenOf(ref) > int(c)
	case idxObj != nil:
		proven = st.nonNeg[idxObj] && refOK && st.ltLenHolds(idxObj, ref)
	}
	if record != nil {
		record(boundsSite{
			node:   x,
			kind:   "index",
			base:   types.ExprString(x.X),
			expr:   types.ExprString(x),
			proven: proven,
			need:   need,
		})
	}
	// Postcondition: past this expression the index was in bounds.
	if refOK && arr == nil {
		if isConst && c >= 0 {
			st.setMinLen(ref, int(c)+1)
		} else {
			// Any successful index means the base is non-empty.
			st.setMinLen(ref, 1)
			if idxObj != nil {
				st.setNonNeg(idxObj)
				st.addLtLen(idxObj, ref)
			}
		}
	}
}

// judgeSlice records the verdict for s[lo:hi] / s[lo:hi:max].
func (en *boundsEngine) judgeSlice(st *boundsState, x *ast.SliceExpr, record func(boundsSite)) {
	baseT := en.info.TypeOf(x.X)
	if baseT == nil {
		return
	}
	known := 0 // length the base is known to have
	trackable := false
	var ref sliceRef
	switch u := baseT.Underlying().(type) {
	case *types.Slice:
		ref, trackable = resolveRef(en.info, x.X)
		if trackable {
			known = st.minLenOf(ref)
		}
	case *types.Basic:
		if u.Info()&types.IsString == 0 {
			return
		}
		ref, trackable = resolveRef(en.info, x.X)
		if trackable {
			known = st.minLenOf(ref)
		}
	case *types.Array:
		known = int(u.Len())
		trackable = true
	case *types.Pointer:
		a, ok := u.Elem().Underlying().(*types.Array)
		if !ok {
			return
		}
		known = int(a.Len())
		trackable = true
	default:
		return
	}

	// All provided bounds must be compile-time constants, ordered, and
	// within the known minimum length. (Slicing checks against cap,
	// and cap >= len >= minLen, so minLen is a sound certificate.)
	proven := trackable
	need := 0
	prev := int64(0)
	for _, bound := range []ast.Expr{x.Low, x.High, x.Max} {
		if bound == nil {
			continue
		}
		c, ok := constIntVal(en.info, bound)
		if !ok || c < prev {
			proven = false
			need = 0
			break
		}
		prev = c
		if int(c) > need {
			need = int(c)
		}
		if int(c) > known {
			proven = false
		}
	}
	if record != nil {
		record(boundsSite{
			node:   x,
			kind:   "slice",
			base:   types.ExprString(x.X),
			expr:   types.ExprString(x),
			proven: proven,
			need:   need,
		})
	}
}

// isByteTyped reports whether t is an unsigned 8-bit integer.
func isByteTyped(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Uint8 || b.Kind() == types.Byte)
}
