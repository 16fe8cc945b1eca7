// Package hotdirective exercises the //mlec:hot and //mlec:cold
// anchoring rules: hot anchors function declarations and statements,
// cold anchors only function declarations, and anything else is
// recorded as a malformed directive — the annotation the author
// thought was enforcing something must never silently do nothing.
package hotdirective

//mlec:hot
type config struct{ n int } // malformed: hot on a type declaration

// Kernel is validly hot; its helper becomes hot by propagation, so
// the helper's allocation is the finding proving the chain works.
//
//mlec:hot
func Kernel(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total * grow(len(xs)) // want `heap-allocates make`
}

func grow(n int) int {
	pad := make([]int, n) // want `heap-allocates make`
	return len(pad)
}

// Region holds a cold directive on a statement: cold is a
// declaration-level barrier, so this one is malformed.
func Region(xs []int) int {
	total := 0
	//mlec:cold
	for _, x := range xs { // malformed: cold anchors only declarations
		total += x
	}
	return total
}

// render is validly cold.
//
//mlec:cold formatting runs off the steady-state path
func render(xs []int) int {
	_ = config{}
	return len(make([]byte, 16))
}

var _ = render

//mlec:hot
// malformed: dangling directive anchored to no declaration or statement

// malformed: //mlec: has no unit directive any more (mathx.Prob, Rate
// and AFR carry units), so a leftover annotation is reported, not
// silently ignored.
//
//mlec:unit prob
var leftover = 0.5

var _ = leftover
