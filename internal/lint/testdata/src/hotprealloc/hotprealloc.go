// Package hotprealloc exercises the hotprealloc analyzer: appends in
// hot scope need a capacity plan — an explicit-capacity make or a
// [:0] warm-buffer reuse, with the result flowing back into the same
// slice. Cold-path appends and non-hot functions are exempt.
package hotprealloc

import "errors"

// Grows appends into a nil slice every iteration: the reallocation
// cascade the analyzer exists to catch.
//
//mlec:hot
func Grows(xs []int) []int {
	var out []int
	for _, x := range xs {
		if x > 0 {
			out = append(out, x) // want `appends in a hot loop without a capacity plan`
		}
	}
	return out
}

// Planned carries the author's capacity plan: appends are alloc-free
// after warmup.
//
//mlec:hot
func Planned(xs []int) []int {
	out := make([]int, 0, len(xs)) // want `heap-allocates make`
	for _, x := range xs {
		out = append(out, x)
	}
	return out
}

// Reuse resets a caller-owned buffer with the [:0] idiom, keeping the
// warm capacity.
//
//mlec:hot
func Reuse(buf, xs []int) []int {
	buf = buf[:0]
	for _, x := range xs {
		buf = append(buf, x)
	}
	return buf
}

// Abandoned has a plan for out but appends into a different slice:
// the plan does not transfer.
//
//mlec:hot
func Abandoned(xs []int) []int {
	out := make([]int, 0, len(xs))
	_ = out
	var other []int
	for _, x := range xs {
		other = append(other, x) // want `appends in a hot loop without a capacity plan`
	}
	return other
}

// SingleAppend grows outside any loop: still a steady-state cost on a
// hot path, reported with the non-loop wording.
//
//mlec:hot
func SingleAppend(xs []int, x int) []int {
	return append(xs, x) // want `appends on the hot path without a capacity plan`
}

// ColdAppend only appends on the early-exit error path.
//
//mlec:hot
func ColdAppend(xs []int, bad bool) ([]int, error) {
	if bad {
		annotated := append(xs, -1)
		return annotated, errors.New("bad input")
	}
	return xs, nil
}

// NotHot appends without annotation: out of scope.
func NotHot(xs []int) []int {
	var out []int
	for _, x := range xs {
		out = append(out, x)
	}
	return out
}
