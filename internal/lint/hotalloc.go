package lint

import (
	"go/ast"
)

// HotAlloc enforces the hot-path contract: no steady-state heap
// allocation, and no per-iteration cost the compiler cannot remove,
// inside a //mlec:hot function or region. It reads the escape engine's
// sites (escape.go) once per function and owns every kind:
//
//   - The general allocation sources — make, new, slice/map composite
//     literals, closures capturing locals, bound method values,
//     string<->[]byte conversions, implicit variadic slices and fmt/log
//     calls.
//   - Appends. An append with no capacity proof may grow its backing
//     array — a heap allocation plus a copy, amortized but never free,
//     and in a loop a repeated reallocation cascade. The engine accepts
//     two proofs (visitAppend): the slice was defined by an
//     explicit-capacity make (make(T, len, cap)) earlier in the
//     function, or it was re-sliced to s[:0], the warm-buffer reuse
//     pattern. In both cases the result must flow back into the same
//     variable (s = append(s, ...)); appending into a different
//     variable abandons the plan.
//   - Interface boxing — converting a concrete value into an interface
//     (explicit T(x) conversions, assignments to interface-typed
//     variables, arguments to interface-typed parameters) allocates
//     unless the concrete type is pointer-shaped (pointer, chan, map,
//     func), whose values ride the interface data word for free.
//   - Dynamic dispatch in a loop — an interface method call or a call
//     through a function value. No allocation, but the indirect call
//     defeats inlining and reloads the itable every iteration, which is
//     exactly the cost the gf256 kernels avoid by taking concrete
//     slices. Outside loops it is not reported.
//   - Defer in a loop. It cannot be open-coded: each iteration
//     heap-allocates a _defer record and chains it, and nothing runs
//     until the function returns — so the usual close-per-iteration
//     intent is wrong twice over. Loop membership comes from the CFG,
//     so loops written with a backward goto count; a defer outside any
//     loop is fine and unreported even in hot scope.
//
// The escape engine's two exemptions apply to the allocating kinds: an
// allocation on a cold path (an if/case body ending in return or panic
// — error formatting, precondition panics) is not a steady-state cost,
// and an allocation bound to a local the engine cannot see escaping is
// plausibly stack-allocated by the compiler and reported by nothing.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "forbid steady-state heap allocations on //mlec:hot paths (unplanned appends and interface boxing included), and dynamic dispatch and defer in their loops",
	Run:  runHotAlloc,
}

// eachHotSite walks every declaration of the pass and invokes fn for
// each escape-engine site that lies in hot scope: anywhere in a hot
// function, or inside a //mlec:hot region statement of any function.
// label names why the site is in scope, for diagnostics. Cold
// functions are skipped wholesale — the annotation is the reviewed
// opt-out.
func eachHotSite(pass *Pass, fn func(fd *ast.FuncDecl, label string, s AllocSite)) {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || pass.FuncCold(fd) {
				continue
			}
			if pass.FuncHot(fd) {
				label := pass.HotLabel(fd)
				for _, s := range pass.FuncAllocSites(fd) {
					fn(fd, label, s)
				}
				continue
			}
			regions := pass.HotRegions(fd)
			if len(regions) == 0 {
				continue
			}
			label := "inside //mlec:hot region of " + fd.Name.Name
			for _, s := range pass.FuncAllocSites(fd) {
				if inStmts(s.Node, regions) {
					fn(fd, label, s)
				}
			}
		}
	}
}

func runHotAlloc(pass *Pass) error {
	eachHotSite(pass, func(fd *ast.FuncDecl, label string, s AllocSite) {
		name, pos := fd.Name.Name, s.Node.Pos()
		heap := s.Class == HeapAlloc
		where := "on the hot path"
		if s.InLoop {
			where = "in a hot loop"
		}
		switch {
		case s.kind == akAppend && heap && s.InLoop:
			pass.Report(pos,
				"%s appends in a hot loop without a capacity plan (%s); preallocate with make(T, 0, n) before the loop or reuse a buffer via s = s[:0]",
				name, label)
		case s.kind == akAppend && heap:
			pass.Report(pos,
				"%s appends on the hot path without a capacity plan (%s); preallocate with an explicit-capacity make",
				name, label)
		case s.kind == akIfaceBox && heap:
			pass.Report(pos,
				"%s %s performs %s (%s); keep the concrete type or use a pointer-shaped value",
				name, where, s.What, label)
		case s.kind == akDispatch && s.InLoop:
			pass.Report(pos,
				"%s has %s in a hot loop (%s); devirtualize to a concrete call or hoist the decision out of the loop",
				name, s.What, label)
		case s.kind == akDefer && s.InLoop:
			pass.Report(pos,
				"%s defers inside a hot loop (%s); each iteration allocates a defer record that only runs at return — call directly or wrap the iteration in a function",
				name, label)
		case s.steadyAlloc(): // every other allocating kind
			pass.Report(pos,
				"%s %s heap-allocates %s (%s); hoist it out, reuse a buffer, or annotate the function //mlec:cold with a rationale",
				name, where, s.What, label)
		}
	})
	return nil
}
