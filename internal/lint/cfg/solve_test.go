package cfg

import (
	"go/ast"
	"maps"
	"testing"
)

// set is the test lattice: a set of names, merged by union.
type set map[string]bool

func union(in, edge set) bool {
	changed := false
	for k := range edge {
		if !in[k] {
			in[k] = true
			changed = true
		}
	}
	return changed
}

// rangeSources is a may-analysis in miniature: a range header generates
// the fact "ranged", every other node leaves the state alone. visits
// counts transfers per block.
func rangeSources(visits map[*Block]int) Flow[set] {
	return Flow[set]{
		Entry: set{},
		Clone: maps.Clone[set],
		Merge: union,
		Transfer: func(b *Block, s set) {
			visits[b]++
			for _, n := range b.Nodes {
				if _, ok := n.(*ast.RangeStmt); ok {
					s["ranged"] = true
				}
			}
		},
	}
}

const rangeAfterReturn = `func f(m map[int]int) int {
	return 0
	for k := range m {
		_ = k
	}
	return 1
}`

// TestSolveEntrySeededSkipsUnreachable: with only the entry seeded, a
// block no edge reaches is never transferred and never visited by Each.
func TestSolveEntrySeededSkipsUnreachable(t *testing.T) {
	g := parse(t, rangeAfterReturn)
	live := reachable(g)
	visits := map[*Block]int{}
	sol := Solve(g, rangeSources(visits))
	if !sol.Converged {
		t.Fatal("did not converge")
	}
	each := map[*Block]bool{}
	sol.Each(func(b *Block, in set) {
		each[b] = true
		if in["ranged"] {
			t.Errorf("block %d(%s) sees the unreachable range header's fact", b.Index, b.Kind)
		}
	})
	dead := 0
	for _, b := range g.Blocks {
		if live[b] != each[b] {
			t.Errorf("block %d(%s): reachable=%v but Each visited=%v", b.Index, b.Kind, live[b], each[b])
		}
		if !live[b] {
			dead++
			if visits[b] != 0 {
				t.Errorf("unreachable block %d(%s) was transferred %d times", b.Index, b.Kind, visits[b])
			}
		}
	}
	if dead == 0 {
		t.Fatalf("test source has no unreachable block: %s", g)
	}
}

// TestSolveAllSeededReachesSources: with Bottom set every block starts
// on the worklist, so the range header behind the return still
// generates its fact and its successors see it — the start the taint
// and domain engines need.
func TestSolveAllSeededReachesSources(t *testing.T) {
	g := parse(t, rangeAfterReturn)
	visits := map[*Block]int{}
	f := rangeSources(visits)
	f.Bottom = func() set { return set{} }
	sol := Solve(g, f)
	if !sol.Converged {
		t.Fatal("did not converge")
	}
	sawBody := false
	sol.Each(func(b *Block, in set) {
		if b.Kind == "range.body" {
			sawBody = true
			if !in["ranged"] {
				t.Error("range body does not see the fact its header generated")
			}
		}
	})
	if !sawBody {
		t.Fatalf("Each skipped the range body: %s", g)
	}
	for _, b := range g.Blocks {
		if visits[b] == 0 {
			t.Errorf("block %d(%s) was never transferred", b.Index, b.Kind)
		}
	}
}

// TestSolveCapOnNonMonotoneTransfer: a transfer that flips a fact on
// every visit of a loop never reaches a fixed point. The solver stops
// after exactly IterationCap transfers per block, says so, and Each
// hands the client nothing to report from.
func TestSolveCapOnNonMonotoneTransfer(t *testing.T) {
	g := parse(t, `func f() { for { } }`)
	transfers := 0
	flip := 0
	sol := Solve(g, Flow[*int]{
		Entry: new(int),
		Clone: func(s *int) *int { c := *s; return &c },
		Merge: func(in, edge *int) bool {
			changed := *in != *edge
			*in = *edge
			return changed
		},
		Transfer: func(b *Block, s *int) {
			transfers++
			if b.Kind == "for.body" {
				flip++
				*s = flip // never the value this block produced last time
			}
		},
	})
	if sol.Converged {
		t.Fatal("a non-monotone flow converged")
	}
	if want := IterationCap * len(g.Blocks); transfers != want {
		t.Errorf("stopped after %d transfers, want the cap of %d", transfers, want)
	}
	sol.Each(func(b *Block, in *int) {
		t.Errorf("Each visited block %d(%s) of a non-converged solution", b.Index, b.Kind)
	})
}
