// Package hotbuildfail type-checks but does not compile: go/types
// accepts a function declared without a body (its body could be
// assembly), the compiler does not. hotbce and hotinline must surface
// the failed build instead of passing with no verdicts.
package hotbuildfail

func external(s []byte) byte

//mlec:hot
func Kernel(s []byte) byte {
	var acc byte
	for i := range s {
		acc ^= external(s[i:])
	}
	return acc
}
