package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"sort"
	"strings"

	"mlec/internal/lint/cfg"
)

// This file implements the lock-state engine behind the concurrency
// analyzer family (lockcheck, atomicmix, goleak).
//
// # Directive grammar
//
//	//mlec:guardedby <name>
//
// On (or directly above) a struct field, <name> must be a sibling field
// of type sync.Mutex or sync.RWMutex; on (or directly above) a
// package-level var, <name> must be a package-level mutex var. The
// annotation is the human claim "every access to this state happens
// with <name> held"; the engine turns the claim into a checked
// invariant. A directive that anchors to nothing, or whose guard does
// not resolve, is recorded in Package.Malformed and reported by
// the driver — a dangling guard annotation is a reviewer believing
// state is protected when nothing checks it.
//
// # The lock-state lattice
//
// Per control-flow point and per lock reference (an identifier or
// field-selection chain, e.g. r.mu) the engine tracks four small
// counters: write-hold depth, read-hold depth, and the deferred
// write/read releases registered so far. Depths are clamped to [0,2] —
// enough to detect double-lock, never enough to diverge. The join at
// CFG merge points is the pointwise minimum (must-held semantics: a
// lock is held after a merge only if it is held on every incoming
// path), so the shared solver (cfg.Solve) reaches the greatest fixed
// point from an entry state that holds nothing.
//
// Exit discipline rides the CFG's synthetic Exit block: every return,
// direct panic call and fall-off-the-end edges into Exit, and at each
// such edge the engine compares hold depth against registered deferred
// releases. `defer mu.Unlock()` therefore counts as released on every
// exit path — including panic edges — while a conditional defer only
// counts on the paths that registered it.
//
// # Interprocedural summaries
//
// Functions compose through lock summaries computed bottom-up over the
// Tarjan condensation (callgraph.go), iterated to a fixed point inside
// cycles like every other fact in facts.go. A summary abstracts lock
// references through the callee's receiver, parameters, or
// package-level vars and records four sets:
//
//	requires — locks that must be held by the caller (inferred from
//	           guarded access or callee requires at depth zero in an
//	           unexported function);
//	acquires — locks held at exit beyond entry (lock helpers);
//	releases — locks released beyond acquisition (unlock helpers);
//	internal — locks the function takes itself, for the
//	           caller-already-holds self-deadlock check.
//
// At a call site the caller concretizes each abstract lock against the
// actual receiver/arguments, applies releases then acquires, checks
// requires against its own state, and reports a self-deadlock when it
// already holds a lock the callee takes internally. Inference keeps
// unexported helpers quiet (their obligation propagates to callers);
// exported functions must be self-contained — an exported API whose
// correctness depends on an undocumented caller-held lock is itself a
// finding.
//
// Function literals do not contribute to summaries. A literal spawned
// by a `go` statement is analyzed in strict mode — guarded access with
// no lock held is always a finding, because requires-inference has no
// caller to propagate to once the goroutine is running. Other literals
// (callbacks, sort comparators) are analyzed in quiet mode: they often
// execute with the enclosing function's locks held, which the engine
// does not model, so only hard local errors (double-lock, imbalance on
// a path) are reported.

// validateGuardDirectives anchors every //mlec:guardedby directive to a
// struct field or package-level var and resolves its guard, filling
// guardedFields/guardedVars; failures land in Malformed.
func (p *Package) validateGuardDirectives() {
	p.guardedFields = make(map[*types.Var]*types.Var)
	p.guardedVars = make(map[*types.Var]*types.Var)
	if len(p.guards) == 0 {
		return
	}
	// claimed tracks directive lines that anchored to something.
	claimed := make(map[string]map[int]bool)
	claim := func(file string, line int) { byLine(claimed, file)[line] = true }
	// guardAt returns the directive guard name for a node starting at
	// pos: directive on the same line (trailing) or the line above.
	guardAt := func(pos token.Position) (string, int, bool) {
		lines := p.guards[pos.Filename]
		if g, ok := lines[pos.Line]; ok {
			return g, pos.Line, true
		}
		if g, ok := lines[pos.Line-1]; ok {
			return g, pos.Line - 1, true
		}
		return "", 0, false
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if st, ok := n.(*ast.StructType); ok {
				p.anchorStructGuards(st, guardAt, claim)
				return true
			}
			return true
		})
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				pos := p.Fset.Position(vs.Pos())
				guard, line, ok := guardAt(pos)
				if !ok {
					continue
				}
				mu := p.packageMutexVar(guard)
				if mu == nil {
					continue // leave unclaimed → malformed
				}
				for _, name := range vs.Names {
					if v, ok := p.Info.Defs[name].(*types.Var); ok {
						p.guardedVars[v] = mu
					}
				}
				claim(pos.Filename, line)
			}
		}
	}
	for file, lines := range p.guards {
		for line := range lines {
			if !claimed[file][line] {
				p.malformed(token.Position{Filename: file, Line: line, Column: 1}, badGuard)
			}
		}
	}
}

// anchorStructGuards resolves guardedby directives on the fields of one
// struct type against its sibling mutex fields.
func (p *Package) anchorStructGuards(st *ast.StructType,
	guardAt func(token.Position) (string, int, bool), claim func(string, int)) {
	// Mutex fields by name, for sibling resolution.
	mutexes := make(map[string]*types.Var)
	for _, field := range st.Fields.List {
		for _, name := range field.Names {
			v, ok := p.Info.Defs[name].(*types.Var)
			if ok && isMutex(v.Type()) {
				mutexes[name.Name] = v
			}
		}
	}
	for _, field := range st.Fields.List {
		if len(field.Names) == 0 {
			continue // embedded fields are not guardable state
		}
		pos := p.Fset.Position(field.Pos())
		guard, line, ok := guardAt(pos)
		if !ok {
			continue
		}
		mu := mutexes[guard]
		if mu == nil {
			continue // unresolvable guard → line stays unclaimed
		}
		for _, name := range field.Names {
			if v, ok := p.Info.Defs[name].(*types.Var); ok && v != mu {
				p.guardedFields[v] = mu
			}
		}
		claim(pos.Filename, line)
	}
}

// packageMutexVar resolves a guard name to a package-level mutex var.
func (p *Package) packageMutexVar(name string) *types.Var {
	if p.Types == nil {
		return nil
	}
	v, ok := p.Types.Scope().Lookup(name).(*types.Var)
	if ok && isMutex(v.Type()) {
		return v
	}
	return nil
}

// A lockAbs abstracts a lock reference through a function boundary:
// rooted at the receiver, a parameter, or a package-level var, plus the
// field path from the root to the mutex.
type lockAbs struct {
	kind byte // 'r' receiver, 'p' parameter, 'g' package-level var
	idx  int  // parameter index when kind == 'p'
	obj  types.Object
	path string // ".mu"-style selection path; "" when the root is the mutex
	read bool   // RLock-mode for acquires/releases; read-suffices for requires
}

func (a lockAbs) key() string {
	mode := "w"
	if a.read {
		mode = "r"
	}
	switch a.kind {
	case 'r':
		return "recv" + a.path + "/" + mode
	case 'p':
		return fmt.Sprintf("p%d%s/%s", a.idx, a.path, mode)
	default:
		name := "?"
		if a.obj != nil {
			name = a.obj.Name()
		}
		return "g." + name + a.path + "/" + mode
	}
}

// lockSummary is one function's composed lock behaviour (see the file
// comment). Sets are keyed by lockAbs.key for deduplication.
type lockSummary struct {
	requires map[string]lockAbs
	acquires map[string]lockAbs
	releases map[string]lockAbs
	internal map[string]lockAbs
}

func newLockSummary() *lockSummary {
	return &lockSummary{
		requires: make(map[string]lockAbs),
		acquires: make(map[string]lockAbs),
		releases: make(map[string]lockAbs),
		internal: make(map[string]lockAbs),
	}
}

// equal compares the key sets: a key determines its lockAbs.
func (s *lockSummary) equal(o *lockSummary) bool {
	eq := func(a, b map[string]lockAbs) bool {
		return maps.EqualFunc(a, b, func(lockAbs, lockAbs) bool { return true })
	}
	return eq(s.requires, o.requires) && eq(s.acquires, o.acquires) &&
		eq(s.releases, o.releases) && eq(s.internal, o.internal)
}

// empty reports whether the summary claims nothing.
func (s *lockSummary) empty() bool {
	return len(s.requires) == 0 && len(s.acquires) == 0 &&
		len(s.releases) == 0 && len(s.internal) == 0
}

// lockVal is the per-lock state at one program point.
type lockVal struct {
	w, r   int8 // hold depths, clamped to [0,2]
	dw, dr int8 // deferred releases registered so far
}

func (v lockVal) zero() bool { return v == lockVal{} }

// inc and dec move one counter within its clamp.
func inc(d *int8) {
	if *d < 2 {
		*d++
	}
}

func dec(d *int8) {
	if *d > 0 {
		*d--
	}
}

// A sliceRef names a reference by a variable, optionally extended by a
// chain of field selections; the zero path means the object itself. It
// identifies a mutex here, and a WaitGroup or a channel in goleak.go.
type sliceRef struct {
	obj  types.Object
	path string // "" or ".field" chains, e.g. ".mu"
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

// lockState maps lock references to their state.
type lockState map[sliceRef]lockVal

// put stores v for ref, keeping zero states out of the map.
func (s lockState) put(ref sliceRef, v lockVal) {
	if v.zero() {
		delete(s, ref)
	} else {
		s[ref] = v
	}
}

// meetInto is the join at CFG merge points, in place: the pointwise
// minimum (held only if held on every path). It reports whether s
// changed.
func (s lockState) meetInto(other lockState) bool {
	changed := false
	for k, v := range s {
		o := other[k] // zero value when absent
		m := lockVal{min(v.w, o.w), min(v.r, o.r), min(v.dw, o.dw), min(v.dr, o.dr)}
		if m == v {
			continue
		}
		changed = true
		s.put(k, m)
	}
	return changed
}

const (
	lockModeDecl    = iota // declared function: summaries + reports
	lockModeGo             // go-statement literal: strict, no inference
	lockModeClosure        // other literal: quiet, hard errors only
)

// lockEngine analyzes one function body. report is nil in summary mode
// (fact computation); in analysis mode it is the Pass's Report.
type lockEngine struct {
	info    *types.Info
	facts   *Facts
	fn      *types.Func // nil for literals
	mode    int
	report  func(pos token.Pos, format string, args ...any)
	summary *lockSummary

	recvObj  types.Object
	paramIdx map[types.Object]int

	// locallyBorn holds objects assigned from a fresh composite literal
	// or new() in this body: construct-then-publish state is exempt
	// from guard checks until it escapes.
	locallyBorn map[types.Object]bool

	// lits collects nested function literals for separate analysis,
	// paired with whether they are spawned by a go statement.
	lits []litSite
}

type litSite struct {
	lit *ast.FuncLit
	gos bool
}

// newLockEngine prepares an engine for a declared function.
func newLockEngine(info *types.Info, facts *Facts, fn *types.Func, decl *ast.FuncDecl,
	report func(pos token.Pos, format string, args ...any)) *lockEngine {
	e := &lockEngine{
		info:     info,
		facts:    facts,
		fn:       fn,
		mode:     lockModeDecl,
		report:   report,
		summary:  newLockSummary(),
		paramIdx: make(map[types.Object]int),
	}
	if decl != nil {
		if decl.Recv != nil && len(decl.Recv.List) == 1 && len(decl.Recv.List[0].Names) == 1 {
			e.recvObj = info.Defs[decl.Recv.List[0].Names[0]]
		}
		i := 0
		for _, field := range decl.Type.Params.List {
			for _, name := range field.Names {
				e.paramIdx[info.Defs[name]] = i
				i++
			}
		}
	}
	return e
}

// analyze runs the engine over a body: fixed point first (cfg.Solve,
// from an entry state holding nothing), then the reporting pass.
func (e *lockEngine) analyze(body *ast.BlockStmt) {
	if body == nil {
		return
	}
	e.collectLocallyBorn(body)
	g := cfg.Build(body)
	sol := cfg.Solve(g, cfg.Flow[lockState]{
		Entry:    lockState{},
		Clone:    maps.Clone[lockState],
		Merge:    lockState.meetInto,
		Transfer: func(b *cfg.Block, st lockState) { e.transferBlock(b, st, false) },
	})
	e.finish(sol, g, body)
}

// finish is the pass over the solved body that fires diagnostics and
// checks every edge into the CFG's Exit block for imbalance, in block
// order so diagnostics are deterministic. A body the solver gave up on
// reports nothing and claims nothing: the inferences its half-iterated
// states put into the summary are dropped.
func (e *lockEngine) finish(sol *cfg.Solution[lockState], g *cfg.Graph, body *ast.BlockStmt) {
	if !sol.Converged {
		e.summary = newLockSummary()
		return
	}
	sol.Each(func(blk *cfg.Block, st lockState) {
		e.transferBlock(blk, st, true)
		for _, s := range blk.Succs {
			if s == g.Exit {
				e.checkExit(blk, st, body)
				break
			}
		}
	})
	// Nested literals: analyzed with a fresh state — the engine does
	// not model which enclosing locks are held when a closure runs.
	lits := e.lits
	e.lits = nil
	for _, ls := range lits {
		sub := &lockEngine{
			info: e.info, facts: e.facts, mode: lockModeClosure,
			report: e.report, summary: newLockSummary(),
			paramIdx: make(map[types.Object]int), locallyBorn: e.locallyBorn,
		}
		if ls.gos {
			sub.mode = lockModeGo
		}
		sub.analyze(ls.lit.Body)
	}
}

// checkExit fires imbalance diagnostics and acquire/release summaries
// for one edge into Exit.
func (e *lockEngine) checkExit(blk *cfg.Block, st lockState, body *ast.BlockStmt) {
	pos := body.End()
	if len(blk.Nodes) > 0 {
		pos = blk.Nodes[len(blk.Nodes)-1].Pos()
	}
	var refs []sliceRef
	for ref := range st {
		refs = append(refs, ref)
	}
	sort.Slice(refs, func(i, j int) bool { return lockRefLabel(refs[i]) < lockRefLabel(refs[j]) })
	for _, ref := range refs {
		v := st[ref]
		netW, netR := v.w-v.dw, v.r-v.dr
		if netW > 0 || netR > 0 {
			if abs, ok := e.absOf(ref); ok && e.mode == lockModeDecl && e.isLockHelper() {
				abs.read = netW <= 0
				e.summary.acquires[abs.key()] = abs
				e.summary.internal[abs.key()] = abs
				continue
			}
			if e.mode == lockModeClosure {
				continue
			}
			e.emit(pos, "%s is still held when the function exits here (missing unlock on this return/panic path; defer the unlock or release before leaving)", lockRefLabel(ref))
			continue
		}
		if netW < 0 || netR < 0 {
			// Deferred release beyond acquisition: an unlock helper.
			if abs, ok := e.absOf(ref); ok && e.allowInference() {
				abs.read = netW >= 0
				e.summary.releases[abs.key()] = abs
				continue
			}
			if e.mode == lockModeClosure {
				continue
			}
			e.emit(pos, "deferred unlock of %s without a matching lock on this path", lockRefLabel(ref))
		}
	}
}

// transferBlock interprets one basic block's nodes against st.
func (e *lockEngine) transferBlock(blk *cfg.Block, st lockState, report bool) {
	for _, n := range blk.Nodes {
		e.node(n, st, report)
	}
}

// node dispatches one CFG node.
func (e *lockEngine) node(n ast.Node, st lockState, report bool) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		for _, rhs := range n.Rhs {
			e.expr(rhs, false, st, report)
		}
		for _, lhs := range n.Lhs {
			e.writeTarget(lhs, st, report)
		}
	case *ast.IncDecStmt:
		e.writeTarget(n.X, st, report)
	case *ast.ExprStmt:
		e.expr(n.X, false, st, report)
	case *ast.SendStmt:
		e.expr(n.Chan, false, st, report)
		e.expr(n.Value, false, st, report)
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			e.expr(r, false, st, report)
		}
	case *ast.DeferStmt:
		e.deferStmt(n, st, report)
	case *ast.GoStmt:
		if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
			if report {
				e.lits = append(e.lits, litSite{lit, true})
			}
		} else {
			e.expr(n.Call.Fun, false, st, report)
		}
		for _, a := range n.Call.Args {
			e.expr(a, false, st, report)
		}
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						e.expr(v, false, st, report)
					}
				}
			}
		}
	case *ast.RangeStmt:
		e.expr(n.X, false, st, report)
	case *ast.LabeledStmt, *ast.EmptyStmt, *ast.BranchStmt:
		// no lock-relevant content
	case ast.Expr:
		e.expr(n, false, st, report)
	case ast.Stmt:
		// Remaining statement forms (Init statements re-dispatched by
		// the CFG, etc.): scan conservatively for reads.
		ast.Inspect(n, func(sub ast.Node) bool {
			if x, ok := sub.(ast.Expr); ok {
				e.expr(x, false, st, report)
				return false
			}
			return true
		})
	}
}

// writeTarget walks an assignment target: the stored-to reference is a
// write access, inner index/pointer expressions are reads.
func (e *lockEngine) writeTarget(x ast.Expr, st lockState, report bool) {
	switch x := ast.Unparen(x).(type) {
	case *ast.Ident, *ast.SelectorExpr:
		e.expr(x.(ast.Expr), true, st, report)
	case *ast.IndexExpr:
		e.expr(x.X, true, st, report)
		e.expr(x.Index, false, st, report)
	case *ast.StarExpr:
		e.expr(x.X, false, st, report)
	default:
		e.expr(x, false, st, report)
	}
}

// expr walks one expression, checking guarded accesses (write reports
// whether the surrounding context stores to the reference) and
// interpreting lock operations and module calls.
func (e *lockEngine) expr(x ast.Expr, write bool, st lockState, report bool) {
	if x == nil {
		return
	}
	switch x := x.(type) {
	case *ast.Ident:
		e.access(x, write, st, report)
	case *ast.SelectorExpr:
		e.access(x, write, st, report)
		e.expr(x.X, write, st, report)
	case *ast.ParenExpr:
		e.expr(x.X, write, st, report)
	case *ast.UnaryExpr:
		// Taking the address of guarded state hands out a mutable
		// alias: treated as a write access.
		e.expr(x.X, x.Op == token.AND || write, st, report)
	case *ast.StarExpr:
		e.expr(x.X, false, st, report)
	case *ast.IndexExpr:
		e.expr(x.X, write, st, report)
		e.expr(x.Index, false, st, report)
	case *ast.SliceExpr:
		e.expr(x.X, write, st, report)
		e.expr(x.Low, false, st, report)
		e.expr(x.High, false, st, report)
		e.expr(x.Max, false, st, report)
	case *ast.BinaryExpr:
		e.expr(x.X, false, st, report)
		e.expr(x.Y, false, st, report)
	case *ast.CallExpr:
		e.call(x, st, report)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				e.expr(kv.Value, false, st, report)
				continue
			}
			e.expr(el, false, st, report)
		}
	case *ast.KeyValueExpr:
		e.expr(x.Value, false, st, report)
	case *ast.TypeAssertExpr:
		e.expr(x.X, false, st, report)
	case *ast.FuncLit:
		if report {
			e.lits = append(e.lits, litSite{x, false})
		}
	}
}

// call interprets one call expression: a mutex operation, a module
// callee with a lock summary, or an ordinary call whose operands are
// read (and whose guarded method receiver is a write).
func (e *lockEngine) call(call *ast.CallExpr, st lockState, report bool) {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if op, ref, ok := e.lockOp(sel); ok {
			e.applyLockOp(op, ref, call.Pos(), st, report)
			return
		}
		// Method call on a guarded field conservatively mutates it
		// (r.buf.Write, e.rng.Shuffle): the receiver is a write access.
		if e.info != nil {
			if s, ok := e.info.Selections[sel]; ok && s.Kind() == types.MethodVal {
				e.expr(sel.X, true, st, report)
			} else {
				e.expr(sel.X, false, st, report)
			}
		}
	} else {
		e.expr(call.Fun, false, st, report)
	}
	for _, a := range call.Args {
		e.expr(a, false, st, report)
	}
	if e.facts != nil && e.info != nil {
		if callee := calleeFunc(e.info, call); callee != nil {
			if sum := e.facts.locks[callee]; sum != nil {
				e.applySummary(callee, sum, call, st, report)
			}
		}
	}
}

// lockOp recognizes mu.Lock / Unlock / RLock / RUnlock on a resolvable
// mutex reference.
func (e *lockEngine) lockOp(sel *ast.SelectorExpr) (string, sliceRef, bool) {
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", sliceRef{}, false
	}
	if e.info == nil {
		return "", sliceRef{}, false
	}
	t := e.info.TypeOf(sel.X)
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if !isMutex(t) {
		return "", sliceRef{}, false
	}
	ref, ok := resolveRef(e.info, sel.X)
	if !ok {
		return "", sliceRef{}, false
	}
	return sel.Sel.Name, ref, true
}

// applyLockOp updates st for one mutex operation and reports the
// double-lock / unheld-release family.
func (e *lockEngine) applyLockOp(op string, ref sliceRef, pos token.Pos, st lockState, report bool) {
	v := st[ref]
	label := lockRefLabel(ref)
	switch op {
	case "Lock":
		if report {
			if v.w > 0 {
				e.emit(pos, "double Lock of %s on this path (already held; self-deadlock)", label)
			} else if v.r > 0 {
				e.emit(pos, "Lock of %s while its read lock is held on this path (self-deadlock)", label)
			}
		}
		inc(&v.w)
		e.noteInternal(ref, false)
	case "RLock":
		if report && v.w > 0 {
			e.emit(pos, "RLock of %s while its write lock is held on this path (self-deadlock)", label)
		}
		inc(&v.r)
		e.noteInternal(ref, true)
	case "Unlock":
		if v.w > 0 {
			v.w--
		} else if !e.releaseInference(ref, false) && report {
			e.emit(pos, "Unlock of %s which is not held on this path", label)
		}
	case "RUnlock":
		if v.r > 0 {
			v.r--
		} else if !e.releaseInference(ref, true) && report {
			e.emit(pos, "RUnlock of %s which is not held on this path", label)
		}
	}
	st.put(ref, v)
}

// noteInternal records an acquisition for the self-deadlock summary.
func (e *lockEngine) noteInternal(ref sliceRef, read bool) {
	if e.mode != lockModeDecl {
		return
	}
	if abs, ok := e.absOf(ref); ok {
		abs.read = read
		e.summary.internal[abs.key()] = abs
	}
}

// releaseInference absorbs an unlock-at-depth-zero into the releases
// summary when the function may legitimately be an unlock helper.
func (e *lockEngine) releaseInference(ref sliceRef, read bool) bool {
	if !e.allowInference() {
		return false
	}
	abs, ok := e.absOf(ref)
	if !ok {
		return false
	}
	abs.read = read
	e.summary.releases[abs.key()] = abs
	return true
}

// deferStmt registers deferred releases: a direct deferred unlock, the
// unlocks inside a deferred literal, and the releases summary of a
// deferred module callee.
func (e *lockEngine) deferStmt(d *ast.DeferStmt, st lockState, report bool) {
	for _, a := range d.Call.Args {
		e.expr(a, false, st, report)
	}
	addDeferred := func(ref sliceRef, read bool) {
		v := st[ref]
		if read {
			inc(&v.dr)
		} else {
			inc(&v.dw)
		}
		st[ref] = v
	}
	// deferredUnlock registers sel when it is an unlock of a resolvable
	// mutex, and reports whether sel was a lock operation at all.
	deferredUnlock := func(fun ast.Expr) bool {
		sel, ok := fun.(*ast.SelectorExpr)
		if !ok {
			return false
		}
		op, ref, ok := e.lockOp(sel)
		switch {
		case ok && op == "Unlock":
			addDeferred(ref, false)
		case ok && op == "RUnlock":
			addDeferred(ref, true)
		}
		return ok
	}
	if deferredUnlock(d.Call.Fun) {
		return
	}
	if lit, ok := d.Call.Fun.(*ast.FuncLit); ok {
		// Unlocks anywhere in the deferred literal (not in further
		// nested literals) run on every exit path.
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok {
				deferredUnlock(call.Fun)
			}
			return true
		})
		if report {
			e.lits = append(e.lits, litSite{lit, false})
		}
		return
	}
	if e.facts != nil && e.info != nil {
		if callee := calleeFunc(e.info, d.Call); callee != nil {
			if sum := e.facts.locks[callee]; sum != nil {
				for _, abs := range sortedAbs(sum.releases) {
					if ref, ok := e.concretize(abs, d.Call); ok {
						addDeferred(ref, abs.read)
					}
				}
			}
		}
	}
}

// applySummary composes a module callee's lock summary into st.
func (e *lockEngine) applySummary(callee *types.Func, sum *lockSummary, call *ast.CallExpr, st lockState, report bool) {
	held := func(ref sliceRef, read bool) bool {
		v := st[ref]
		if read {
			return v.w > 0 || v.r > 0
		}
		return v.w > 0
	}
	if report {
		for _, abs := range sortedAbs(sum.internal) {
			if ref, ok := e.concretize(abs, call); ok && held(ref, true) {
				e.emit(call.Pos(), "calling %s, which locks %s internally, while already holding it (self-deadlock)",
					callee.Name(), lockRefLabel(ref))
			}
		}
	}
	for _, abs := range sortedAbs(sum.requires) {
		ref, ok := e.concretize(abs, call)
		if !ok {
			continue
		}
		if held(ref, abs.read) {
			continue
		}
		if e.requireInference(ref, abs.read) {
			continue
		}
		if report && e.mode != lockModeClosure {
			e.emit(call.Pos(), "calling %s requires holding %s, which is not held on this path",
				callee.Name(), lockRefLabel(ref))
		}
	}
	for _, abs := range sortedAbs(sum.releases) {
		if ref, ok := e.concretize(abs, call); ok {
			v := st[ref]
			if abs.read {
				dec(&v.r)
			} else {
				dec(&v.w)
			}
			st.put(ref, v)
		}
	}
	for _, abs := range sortedAbs(sum.acquires) {
		if ref, ok := e.concretize(abs, call); ok {
			v := st[ref]
			if abs.read {
				inc(&v.r)
			} else {
				inc(&v.w)
			}
			st[ref] = v
		}
	}
}

// access checks one guarded-state reference against the current state.
func (e *lockEngine) access(x ast.Expr, write bool, st lockState, report bool) {
	if !report || e.info == nil || e.facts == nil {
		return
	}
	guardRef, mu, field, ok := e.guardOfExpr(x)
	if !ok {
		return
	}
	v := st[guardRef]
	rw := isRWMutex(mu.Type())
	heldOK := v.w > 0 || (rw && !write && v.r > 0)
	if heldOK {
		return
	}
	if e.requireInference(guardRef, rw && !write) {
		return
	}
	if e.mode == lockModeClosure {
		return
	}
	verb := "read"
	if write {
		verb = "written"
	}
	where := ""
	if e.mode == lockModeGo {
		where = " inside a goroutine"
	}
	e.emit(x.Pos(), "%s is %s%s without holding %s (//mlec:guardedby)",
		fieldLabel(field), verb, where, lockRefLabel(guardRef))
}

// guardOfExpr resolves x to an annotated field or package var and
// returns the concrete lock reference guarding it.
func (e *lockEngine) guardOfExpr(x ast.Expr) (sliceRef, *types.Var, *types.Var, bool) {
	switch x := x.(type) {
	case *ast.SelectorExpr:
		s, ok := e.info.Selections[x]
		if !ok || s.Kind() != types.FieldVal {
			return sliceRef{}, nil, nil, false
		}
		field, ok := s.Obj().(*types.Var)
		if !ok {
			return sliceRef{}, nil, nil, false
		}
		mu := e.facts.guardedFields[field]
		if mu == nil {
			return sliceRef{}, nil, nil, false
		}
		base, ok := resolveRef(e.info, x.X)
		if !ok || e.locallyBorn[base.obj] {
			return sliceRef{}, nil, nil, false
		}
		return sliceRef{obj: base.obj, path: base.path + "." + mu.Name()}, mu, field, true
	case *ast.Ident:
		obj, ok := e.info.ObjectOf(x).(*types.Var)
		if !ok {
			return sliceRef{}, nil, nil, false
		}
		mu := e.facts.guardedVars[obj]
		if mu == nil {
			return sliceRef{}, nil, nil, false
		}
		return sliceRef{obj: mu}, mu, obj, true
	}
	return sliceRef{}, nil, nil, false
}

// requireInference absorbs an unheld obligation into the requires
// summary when propagation to callers is legitimate.
func (e *lockEngine) requireInference(ref sliceRef, read bool) bool {
	if !e.allowInference() {
		return false
	}
	abs, ok := e.absOf(ref)
	if !ok {
		return false
	}
	abs.read = read
	e.summary.requires[abs.key()] = abs
	return true
}

// allowInference: only unexported declared functions may push lock
// obligations onto their callers; exported API must be self-contained,
// and goroutine bodies have no caller left to satisfy the obligation.
func (e *lockEngine) allowInference() bool {
	return e.mode == lockModeDecl && e.fn != nil && !e.fn.Exported()
}

// isLockHelper reports whether the function's name advertises that it
// returns with a lock held (lock/acquire naming convention).
func (e *lockEngine) isLockHelper() bool {
	if e.fn == nil {
		return false
	}
	n := strings.ToLower(e.fn.Name())
	return strings.Contains(n, "lock") || strings.Contains(n, "acquire")
}

// absOf abstracts a concrete lock reference through this function's
// boundary, if its root is the receiver, a parameter, or package-level.
func (e *lockEngine) absOf(ref sliceRef) (lockAbs, bool) {
	if ref.obj == nil {
		return lockAbs{}, false
	}
	if e.recvObj != nil && ref.obj == e.recvObj {
		return lockAbs{kind: 'r', path: ref.path}, true
	}
	if idx, ok := e.paramIdx[ref.obj]; ok {
		return lockAbs{kind: 'p', idx: idx, path: ref.path}, true
	}
	if v, ok := ref.obj.(*types.Var); ok && v.Pkg() != nil &&
		v.Parent() == v.Pkg().Scope() {
		return lockAbs{kind: 'g', obj: v, path: ref.path}, true
	}
	return lockAbs{}, false
}

// concretize maps a callee's abstract lock to a caller reference at one
// call site.
func (e *lockEngine) concretize(abs lockAbs, call *ast.CallExpr) (sliceRef, bool) {
	unwrap := func(x ast.Expr) ast.Expr {
		x = ast.Unparen(x)
		if u, ok := x.(*ast.UnaryExpr); ok && u.Op == token.AND {
			return u.X
		}
		return x
	}
	switch abs.kind {
	case 'g':
		return sliceRef{obj: abs.obj, path: abs.path}, true
	case 'r':
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return sliceRef{}, false
		}
		base, ok := resolveRef(e.info, unwrap(sel.X))
		if !ok {
			return sliceRef{}, false
		}
		return sliceRef{obj: base.obj, path: base.path + abs.path}, true
	case 'p':
		if abs.idx >= len(call.Args) {
			return sliceRef{}, false
		}
		base, ok := resolveRef(e.info, unwrap(call.Args[abs.idx]))
		if !ok {
			return sliceRef{}, false
		}
		return sliceRef{obj: base.obj, path: base.path + abs.path}, true
	}
	return sliceRef{}, false
}

// collectLocallyBorn marks objects initialized from fresh composite
// literals or new() in this body.
func (e *lockEngine) collectLocallyBorn(body *ast.BlockStmt) {
	e.locallyBorn = make(map[types.Object]bool)
	if e.info == nil {
		return
	}
	born := func(rhs ast.Expr) bool {
		rhs = ast.Unparen(rhs)
		if u, ok := rhs.(*ast.UnaryExpr); ok && u.Op == token.AND {
			rhs = ast.Unparen(u.X)
		}
		switch rhs := rhs.(type) {
		case *ast.CompositeLit:
			return true
		case *ast.CallExpr:
			id, ok := rhs.Fun.(*ast.Ident)
			return ok && id.Name == "new"
		}
		return false
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				if i >= len(n.Rhs) {
					break
				}
				id, ok := lhs.(*ast.Ident)
				if ok && born(n.Rhs[i]) {
					if obj := e.info.ObjectOf(id); obj != nil {
						e.locallyBorn[obj] = true
					}
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				if i >= len(n.Values) {
					break
				}
				if born(n.Values[i]) {
					if obj := e.info.Defs[name]; obj != nil {
						e.locallyBorn[obj] = true
					}
				}
			}
		}
		return true
	})
}

func (e *lockEngine) emit(pos token.Pos, format string, args ...any) {
	if e.report != nil {
		e.report(pos, format, args...)
	}
}

// lockRefLabel renders a lock reference for diagnostics: "r.mu".
func lockRefLabel(ref sliceRef) string {
	if ref.obj == nil {
		return "<lock>" + ref.path
	}
	return ref.obj.Name() + ref.path
}

func fieldLabel(v *types.Var) string {
	return v.Name()
}

// sortedAbs returns a summary set in deterministic key order.
func sortedAbs(m map[string]lockAbs) []lockAbs {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]lockAbs, 0, len(keys))
	for _, k := range keys {
		out = append(out, m[k])
	}
	return out
}

// isRWMutex reports whether t is sync.RWMutex specifically.
func isRWMutex(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "RWMutex"
}

// computeLocks fills the per-function lock summaries bottom-up over the
// SCC condensation, fixed-pointed inside cycles like every other fact.
func (f *Facts) computeLocks(g *callGraph) {
	f.locks = make(map[*types.Func]*lockSummary)
	for _, scc := range g.sccs {
		for _, n := range scc {
			f.locks[n.fn] = newLockSummary()
		}
		for iter := 1; iter <= sccIterationCap; iter++ {
			changed := false
			for _, n := range scc {
				e := newLockEngine(n.site.pkg.Info, f, n.fn, n.site.decl, nil)
				e.analyze(n.site.decl.Body)
				if !e.summary.equal(f.locks[n.fn]) {
					f.locks[n.fn] = e.summary
					changed = true
				}
			}
			if iter > f.maxSCCIters {
				f.maxSCCIters = iter
			}
			if !changed {
				break
			}
		}
	}
}

// LockSummaryOf exposes a function's lock summary (nil outside the
// module), for tests.
func (f *Facts) LockSummaryOf(fn *types.Func) *lockSummary { return f.locks[fn] }
