// Package hotalloc exercises the hotalloc analyzer: the compiler's
// heap allocations inside //mlec:hot functions and regions are
// findings; cold-path, stack-allocated and //mlec:cold-shielded ones
// are not.
package hotalloc

import "fmt"

var sink []*int

// Kernel is annotated hot; its escaping make and the argument its fmt
// call boxes are steady-state allocations.
//
//mlec:hot
func Kernel(src []byte) []byte {
	buf := make([]byte, len(src)) // want `heap-allocates make`
	copy(buf, src)
	tag := fmt.Sprintf("%d", len(src)) // want `heap-allocates len\(src\) \(the compiler: escapes to heap`
	_ = tag
	return buf
}

// StackLocal allocates a scratch slice that never escapes: the compiler
// keeps it on the stack, so not a finding.
//
//mlec:hot
func StackLocal() int {
	tmp := make([]int, 8)
	total := 0
	for i := range tmp {
		total += i
	}
	return total
}

// ColdError formats an error only on the early-exit path; the cold
// classification exempts it.
//
//mlec:hot
func ColdError(xs []int) (int, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("empty input")
	}
	return xs[0], nil
}

// Driver is hot and calls helper, so hotness propagates and helper's
// own allocation is flagged at its site.
//
//mlec:hot
func Driver(xs []int) int {
	return len(helper(xs))
}

func helper(xs []int) map[int]bool {
	seen := map[int]bool{} // want `heap-allocates map\[int\]bool\{\}`
	for _, x := range xs {
		seen[x] = true
	}
	return seen
}

// WithColdCallee calls a function behind an //mlec:cold barrier:
// hotness must not flow into it.
//
//mlec:hot
func WithColdCallee(xs []int) int {
	_ = renderDebug(xs)
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

// renderDebug runs off the steady-state path by design.
//
//mlec:cold debug rendering is amortized by the caller
func renderDebug(xs []int) string {
	return fmt.Sprintf("%v", xs)
}

// SetupThenLoop allocates freely in setup; only the annotated region
// is hot scope.
func SetupThenLoop(xs []int) int {
	scratch := make([]int, len(xs))
	copy(scratch, xs)
	total := 0
	//mlec:hot
	for _, x := range scratch {
		total += x
		box := new(int)          // want `heap-allocates new`
		sink = append(sink, box) // want `appends in a hot loop without a capacity plan`
	}
	return total
}

// Closure captures locals and escapes by return: a real closure
// allocation. StaticFunc's literal captures nothing and is free.
//
//mlec:hot
func Closure(xs []int) func() int {
	i := 0               // want `heap-allocates i \(the compiler: moved to heap`
	next := func() int { // want `heap-allocates func literal`
		i++
		return xs[i-1]
	}
	return next
}

//mlec:hot
func StaticFunc() func(int) int {
	f := func(x int) int { return x * 2 }
	return f
}

type counter struct{ n int }

func (c *counter) inc() { c.n++ }

// MethodValue binds a receiver into a method value: a closure
// allocation.
//
//mlec:hot
func MethodValue(c *counter) func() {
	return c.inc // want `heap-allocates c.inc`
}

// Stringify copies the byte slice into a string.
//
//mlec:hot
func Stringify(b []byte) string {
	return string(b) // want `heap-allocates string\(b\)`
}

func sum(xs ...int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

// Variadic's implicit slice never escapes sum: stack-allocated.
//
//mlec:hot
func Variadic(a, b int) int {
	return sum(a, b)
}

// Allowed carries a reviewed suppression: the directive swallows the
// finding.
//
//mlec:hot
func Allowed() []byte {
	//lint:allow hotalloc scratch buffer, measured harmless at this call rate
	return make([]byte, 64)
}

// NotHot allocates without any annotation in scope: silence.
func NotHot(n int) []int {
	return make([]int, n)
}
