// Package hotinline exercises the hotinline analyzer: per-iteration
// calls in //mlec:hot loops that the inliner refuses for a reason other
// than size are findings; inlined, cold, and over-budget callees are
// not. Every verdict is the compiler's own (-m=2).
package hotinline

import "sync"

var mu sync.Mutex

// lockedBump is small, but the inliner refuses its defer.
func lockedBump(n *int) {
	mu.Lock()
	defer mu.Unlock()
	*n++
}

// plainBump has no defer, but the inliner prices its two calls over the
// budget ("function too complex"): a cost refusal, no finding.
func plainBump(n *int) {
	mu.Lock()
	*n++
	mu.Unlock()
}

// sumAll loops over a call through a function value; the inliner takes
// it all the same.
func sumAll(xs []int, f func(int) int) int {
	total := 0
	for _, x := range xs {
		total += f(x)
	}
	return total
}

// leafSum loops without calling: inlined.
func leafSum(xs []int) int {
	total := 0
	for _, x := range xs {
		total += x
	}
	return total
}

// bigKernel is over the cost budget: its call overhead is amortized over
// its own work, so the refusal is no finding.
func bigKernel(src, dst []byte) {
	for len(src) >= 8 && len(dst) >= 8 {
		dst[0], dst[1], dst[2], dst[3] = src[0], src[1], src[2], src[3]
		dst[4], dst[5], dst[6], dst[7] = src[4], src[5], src[6], src[7]
		helperA(dst)
		helperB(dst)
		src, dst = src[8:], dst[8:]
	}
	for len(src) > 0 && len(dst) > 0 {
		dst[0] = src[0]
		helperA(dst)
		helperB(dst)
		src, dst = src[1:], dst[1:]
	}
}

func helperA(b []byte) {
	if len(b) > 0 {
		b[0] ^= 1
	}
}

func helperB(b []byte) {
	if len(b) > 0 {
		b[0] ^= 2
	}
}

// pinned is tiny, but its go:noinline mark refuses the inliner.
//
//go:noinline
func pinned(n int) int { return n + 1 }

// coldNote is the reviewed opt-out: amortized poll-point work.
//
//mlec:cold amortized poll-point rendering
func coldNote(n *int) {
	mu.Lock()
	defer mu.Unlock()
	*n = 0
}

// Driver exercises every judgment in one hot loop.
//
//mlec:hot
func Driver(xs []int, counters []int, visit func(int) int) int {
	total := 0
	for i := range xs {
		lockedBump(&total) // want `lockedBump in a hot loop, but the compiler cannot inline it: unhandled op DEFER`
		plainBump(&total)
		total += sumAll(xs, visit)
		total += leafSum(xs)
		total += pinned(i) // want `pinned in a hot loop, but the compiler cannot inline it: marked go:noinline`
		total += visit(i)  // want `calls visit through a function value in a hot loop`
		if total > 1<<30 {
			lockedBump(&total) // early-exit branch: at most once per loop
			return total
		}
		coldNote(&total)
	}
	return total
}

// KernelCaller calls the big kernel per iteration: its cost exempts it.
//
//mlec:hot
func KernelCaller(shards [][]byte, out []byte) {
	for _, s := range shards {
		bigKernel(s, out)
	}
}

// RegionHost is not hot; only the annotated statement is swept.
func RegionHost(xs []int) int {
	total := 0
	for range xs {
		lockedBump(&total) // outside the region: not swept
	}
	//mlec:hot region: the second pass is the steady-state one
	for range xs {
		lockedBump(&total) // want `lockedBump in a hot loop, but the compiler cannot inline it: unhandled op DEFER`
	}
	return total
}

// AllowedCall suppresses a true finding with a reviewed directive.
//
//mlec:hot
func AllowedCall(xs []int) int {
	total := 0
	for range xs {
		//lint:allow hotinline the lock must be held per item; inlining is not the fix
		lockedBump(&total)
	}
	return total
}
