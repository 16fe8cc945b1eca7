// Package hotbce exercises the hotbce analyzer: no index or slice in a
// //mlec:hot loop may keep its bounds check. Every want line is the
// compiler's own verdict (-d=ssa/check_bce prints Found there); sites
// the prove pass eliminates and sites outside loops are negative cases.
package hotbce

// SliceAdvance is the blessed kernel shape: constant indexes below the
// guard width, then advance. Every check is eliminated.
//
//mlec:hot
func SliceAdvance(src, dst []byte) {
	for len(src) >= 4 && len(dst) >= 4 {
		dst[0] = src[0]
		dst[1] = src[1]
		dst[2] = src[2]
		dst[3] = src[3]
		src, dst = src[4:], dst[4:]
	}
	for len(src) > 0 && len(dst) > 0 {
		dst[0] = src[0]
		src, dst = src[1:], dst[1:]
	}
}

// IndexedNoGuard is the anti-pattern: the compiler keeps a check per
// access because nothing bounds i+1 against len(s).
//
//mlec:hot
func IndexedNoGuard(s []byte) byte {
	var acc byte
	for i := 0; i+2 <= len(s); i += 2 {
		acc ^= s[i]   // want `indexes s\[i\] in a hot loop, and the compiler keeps its bounds check`
		acc ^= s[i+1] // want `indexes s\[i \+ 1\] in a hot loop, and the compiler keeps its bounds check`
	}
	return acc
}

// RangeIndex is in bounds by the range key relation.
//
//mlec:hot
func RangeIndex(s []byte) byte {
	var acc byte
	for i := range s {
		acc ^= s[i]
	}
	return acc
}

// EqualLens indexes one slice with the other's range key after an
// early-return length guard: the prove pass carries the equality.
//
//mlec:hot
func EqualLens(row, data []byte) byte {
	if len(row) != len(data) {
		return 0
	}
	var acc byte
	for i := range row {
		acc ^= data[i]
	}
	return acc
}

// OrGuard is in bounds through the false edge of a disjunction: past
// the guard both operands are false.
//
//mlec:hot
func OrGuard(rem [][]byte) []byte {
	for len(rem) >= 1 {
		if len(rem) < 2 || rem[0] == nil {
			return nil
		}
		out := rem[1]
		rem = rem[2:]
		if out != nil {
			return out
		}
	}
	return nil
}

// UnrelatedLens indexes data with a key ranged over row without any
// length relation between them: the check stays.
//
//mlec:hot
func UnrelatedLens(row, data []byte) byte {
	var acc byte
	for i := range row {
		acc ^= data[i] // want `indexes data\[i\] in a hot loop, and the compiler keeps its bounds check`
	}
	return acc
}

// ByteTable needs no check: a byte cannot exceed a 256-entry table.
//
//mlec:hot
func ByteTable(tab *[256]byte, src []byte) byte {
	var acc byte
	for len(src) > 0 {
		acc ^= tab[src[0]]
		src = src[1:]
	}
	return acc
}

// MaskTable needs no check either: the prove pass knows x&255 < 256 for
// any unsigned x, not only for a byte-typed index.
//
//mlec:hot
func MaskTable(tab *[256]uint32, src []uint32) uint32 {
	var acc uint32
	for _, x := range src {
		acc ^= tab[x&255]
	}
	return acc
}

// HintBeforeLoop eliminates constant window checks with a `_ = s[k]`
// hint placed before the loop: past it len(src) >= 8 holds on every
// iteration because nothing reassigns src. The hint keeps its own
// check, once per call, outside the loop.
//
//mlec:hot
func HintBeforeLoop(src []byte, rounds int) byte {
	var acc byte
	_ = src[7]
	for ; rounds > 0; rounds-- {
		acc ^= src[0] ^ src[3] ^ src[7]
	}
	return acc
}

// UnguardedSliceExpr reslices past an unknown length inside the loop.
//
//mlec:hot
func UnguardedSliceExpr(s []byte) int {
	n := 0
	for n < 10 {
		s = s[8:] // want `slices s\[8:\] in a hot loop, and the compiler keeps its bounds check`
		n++
	}
	return n
}

type queue struct {
	items []int
}

func (q *queue) drop() {
	if len(q.items) > 0 {
		q.items = q.items[1:]
	}
}

// FieldPeek reads a field the loop condition just measured: the
// condition re-establishes len(q.items) >= 1 on every iteration, and
// nothing invalidates it before the read.
//
//mlec:hot
func FieldPeek(q *queue) int {
	total := 0
	for len(q.items) > 0 {
		total += q.items[0]
		q.drop()
	}
	return total
}

// FieldPeekAfterCall reads the field after a method call that may have
// shrunk it, so the read keeps its check.
//
//mlec:hot
func FieldPeekAfterCall(q *queue) int {
	total := 0
	for len(q.items) > 0 {
		q.drop()
		total += q.items[0] // want `indexes q\.items\[0\] in a hot loop, and the compiler keeps its bounds check`
	}
	return total
}

// OncePerCall indexes outside any loop: a single check is not a
// steady-state cost, so no finding whatever the compiler keeps.
//
//mlec:hot
func OncePerCall(s []byte) byte {
	if len(s) == 0 {
		return 0
	}
	return s[len(s)-1]
}

// RegionHost is not hot itself; only the annotated loop is swept.
func RegionHost(xs, ys []int) int {
	total := xs[len(xs)-1] // outside the region: not swept
	//mlec:hot region: the reduction loop
	for i := range xs {
		total += ys[i] // want `indexes ys\[i\] in a hot loop, and the compiler keeps its bounds check`
	}
	return total
}

// transitiveHelper is hot only by propagation from Caller; hotbce
// sweeps directly annotated code only, so its checked indexing is not
// a finding — not even where Caller inlines it, outside any loop.
func transitiveHelper(xs []int) int {
	total := 0
	for i := 0; i < 4; i++ {
		total += xs[i]
	}
	return total
}

//mlec:hot
func Caller(xs []int) int {
	return transitiveHelper(xs)
}

func peek(xs []int, i int) int { return xs[i] }

// InlinedCheck calls a helper the compiler inlines; the check the
// helper's body keeps is reported at the call.
//
//mlec:hot
func InlinedCheck(xs, idx []int) int {
	total := 0
	for _, i := range idx {
		total += peek(xs, i) // want `calls peek in a hot loop, and the compiler keeps a bounds check in its inlined body`
	}
	return total
}

// Allowed suppresses a true finding with a reviewed directive.
//
//mlec:hot
func Allowed(s []byte, n int) byte {
	var acc byte
	for i := 0; i < n; i++ {
		//lint:allow hotbce n is validated against len(s) by every caller
		acc ^= s[i]
	}
	return acc
}
