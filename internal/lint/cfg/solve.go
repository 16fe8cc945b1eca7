package cfg

// A Flow describes one forward dataflow problem over a Graph: what the
// state looks like on entry, how two states meet where control merges,
// and what a block does to a state. S is a mutable reference value (a
// map or a pointer); the solver copies it with Clone before every
// Transfer, so a block's recorded in-state is never aliased.
//
// The solver does not interpret the lattice. Merge is a union for a
// may-analysis whose facts grow (taint, domains) and an intersection
// for a must-analysis whose facts shrink (held locks); all the
// solver needs is the "changed" bit.
type Flow[S any] struct {
	// Entry is the state on function entry.
	Entry S
	// Bottom chooses the seeding. Nil seeds only the entry block: a
	// block's in-state is the first edge state to arrive, merged with
	// every later one, and a block no edge reaches is never
	// transferred. Non-nil seeds every block with Bottom() and puts
	// every block on the worklist, reachable or not — the start a
	// may-analysis needs when blocks generate facts by themselves (a
	// range header is a source whatever flows into it).
	Bottom func() S
	// Clone returns an independent copy of s.
	Clone func(s S) S
	// Merge folds an edge state into a block's in-state in place and
	// reports whether the in-state changed.
	Merge func(in, edge S) bool
	// Transfer runs s through b's nodes in order, in place.
	Transfer func(b *Block, s S)
}

// IterationCap bounds Solve at IterationCap transfers per block of the
// graph. Every lattice in this package is finite with monotone
// transfers, so a fixed point arrives long before it; the cap turns a
// future non-monotone transfer bug into "not converged" — on which no
// client reports or claims anything — instead of a hang or a verdict
// read off a half-iterated state.
const IterationCap = 256

// A Solution holds the block in-states Solve stopped at.
type Solution[S any] struct {
	// Converged reports that the worklist drained below the cap. When
	// false the in-states are not a fixed point and Each visits
	// nothing.
	Converged bool

	g       *Graph
	clone   func(S) S
	in      []S
	reached []bool
}

// Solve iterates f over g to a fixed point: a first-in-first-out
// worklist of blocks, each transferred from a copy of its in-state and
// its out-state merged into its successors, until nothing changes or
// the cap is hit.
func Solve[S any](g *Graph, f Flow[S]) *Solution[S] {
	n := len(g.Blocks)
	sol := &Solution[S]{g: g, clone: f.Clone, in: make([]S, n), reached: make([]bool, n)}
	queued := make([]bool, n)
	var work []*Block
	if f.Bottom != nil {
		for i := range sol.in {
			sol.in[i] = f.Bottom()
			sol.reached[i], queued[i] = true, true
		}
		work = append(work, g.Blocks...)
	} else {
		sol.reached[g.Entry.Index], queued[g.Entry.Index] = true, true
		work = append(work, g.Entry)
	}
	sol.in[g.Entry.Index] = f.Entry

	for transfers := 0; len(work) > 0; transfers++ {
		if transfers >= IterationCap*n {
			return sol
		}
		b := work[0]
		work = work[1:]
		queued[b.Index] = false
		out := f.Clone(sol.in[b.Index])
		f.Transfer(b, out)
		for _, succ := range b.Succs {
			changed := false
			if sol.reached[succ.Index] {
				changed = f.Merge(sol.in[succ.Index], out)
			} else {
				sol.in[succ.Index] = f.Clone(out)
				sol.reached[succ.Index] = true
				changed = true
			}
			if changed && !queued[succ.Index] {
				queued[succ.Index] = true
				work = append(work, succ)
			}
		}
	}
	sol.Converged = true
	return sol
}

// Each calls visit for every reached block in index order with a fresh
// copy of the block's fixed in-state — the pass in which a client
// re-runs its transfer to record verdicts. Unreached blocks are
// skipped, and so is everything when the solution did not converge.
func (sol *Solution[S]) Each(visit func(b *Block, in S)) {
	if !sol.Converged {
		return
	}
	for _, b := range sol.g.Blocks {
		if sol.reached[b.Index] {
			visit(b, sol.clone(sol.in[b.Index]))
		}
	}
}
