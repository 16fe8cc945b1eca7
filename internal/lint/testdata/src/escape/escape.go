// Package escape holds one hot function per allocation idiom hotalloc
// judges: TestEscapeEngine pins the findings each one draws, from the
// compiler's escape analysis or from the source.
package escape

import "fmt"

//mlec:hot
func SanitizedAppend(xs []int) []int {
	out := make([]int, 0, len(xs))
	for _, x := range xs {
		out = append(out, x)
	}
	return out
}

//mlec:hot
func TwoArgMake(xs []int) []int {
	out := make([]int, 0)
	for _, x := range xs {
		out = append(out, x)
	}
	return out
}

//mlec:hot
func WarmReuse(buf, xs []int) []int {
	buf = buf[:0]
	for _, x := range xs {
		buf = append(buf, x)
	}
	return buf
}

//mlec:hot
func PlanDoesNotTransfer(xs []int) []int {
	planned := make([]int, 0, 8)
	_ = planned
	var other []int
	for _, x := range xs {
		other = append(other, x)
	}
	return other
}

//mlec:hot
func PlanAfterAppend(x int) []int {
	var s []int
	s = append(s, x)
	s = make([]int, 0, 8)
	return s
}

//mlec:hot
func ColdPath(xs []int) (int, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("empty input of %d", len(xs))
	}
	return xs[0], nil
}

//mlec:hot
func NonEscapingMake() int {
	tmp := make([]int, 8)
	total := 0
	for i := range tmp {
		total += i
	}
	return total
}

//mlec:hot
func EscapeByReturn(n int) []byte {
	buf := make([]byte, n)
	return buf
}

//mlec:hot
func CaptureFree() func(int) int {
	f := func(x int) int { return x * 2 }
	return f
}

//mlec:hot
func Capturing(n int) func() int {
	i := 0
	f := func() int { i++; return i + n }
	return f
}

//mlec:hot
func Boxing(x int, p *int) (any, any) {
	var a any = x
	var b any = p
	return a, b
}

type stepper interface{ Step() int }

//mlec:hot
func GotoLoop(v stepper, n int) int {
	total := 0
	i := 0
again:
	defer func() {}()
	total += v.Step()
	i++
	if i < n {
		goto again
	}
	return total
}
