// Package hotiface exercises the hotiface analyzer: interface boxing
// of non-pointer-shaped values anywhere in hot scope, and dynamic
// dispatch (interface methods, function values) inside hot loops.
package hotiface

// BoxInt boxes a bare int into an interface word.
//
//mlec:hot
func BoxInt(x int) any {
	var v any = x // want `heap-allocates x \(the compiler: escapes to heap`
	return v
}

// BoxPtr stores a pointer-shaped value: rides the data word, free.
//
//mlec:hot
func BoxPtr(p *int) any {
	var v any = p
	return v
}

type pair struct{ a, b int }

func consume(v any) { _ = v }

// PassArg's boxed struct never escapes consume: stack-allocated.
//
//mlec:hot
func PassArg(s pair) {
	consume(s)
}

// ColdBox boxes only on the early-exit path.
//
//mlec:hot
func ColdBox(x int, bad bool) any {
	if bad {
		var v any = x
		return v
	}
	return nil
}

type stepper interface{ Step() int }

// Drain dispatches through the interface every iteration: the
// per-iteration cost hotiface exists to surface.
//
//mlec:hot
func Drain(s stepper, n int) int {
	total := 0
	for i := 0; i < n; i++ {
		total += s.Step() // want `interface method call Step in a hot loop`
	}
	return total
}

// One dispatches once, outside any loop: unreported.
//
//mlec:hot
func One(s stepper) int {
	return s.Step()
}

// Apply calls through a function value per iteration.
//
//mlec:hot
func Apply(f func(int) int, xs []int) int {
	total := 0
	for _, x := range xs {
		total += f(x) // want `indirect call through function value in a hot loop`
	}
	return total
}

// NotHot dispatches in a loop without any annotation: out of scope.
func NotHot(s stepper, n int) int {
	total := 0
	for i := 0; i < n; i++ {
		total += s.Step()
	}
	return total
}
