package gf256

import "testing"

// vectorHost records whether package init selected the vector bodies.
var vectorHost = useVector

// OnKernels runs f as two subtests: "vector" on the kernels init selected
// (skipped where that is the Go loops alone) and "go" with the vector
// bodies switched off, so both paths under Apply meet every check.
func OnKernels(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	legs := []struct {
		name   string
		vector bool
	}{{"vector", true}, {"go", false}}
	for _, leg := range legs {
		t.Run(leg.name, func(t *testing.T) {
			if leg.vector && !vectorHost {
				t.Skip("no vector body on this host: it needs amd64 with AVX2 and OS-enabled YMM state")
			}
			defer func() { useVector = vectorHost }()
			useVector = leg.vector
			f(t)
		})
	}
}
