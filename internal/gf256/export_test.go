package gf256

import "testing"

// vectorHost and gfniHost record which bodies package init selected.
var vectorHost, gfniHost = useVector, useGFNI

// kernelLeg is one body under Apply, named as OnKernels names its subtest.
type kernelLeg struct {
	name         string
	vector, gfni bool
}

// kernelLegs are the three bodies: Apply's GFNI body, the AVX2
// split-nibble bodies with GFNI switched off, and the Go loops alone.
var kernelLegs = []kernelLeg{{"gfni", true, true}, {"vector", true, false}, {"go", false, false}}

// missing returns why this host cannot run the leg, or "" when it can.
func (leg kernelLeg) missing() string {
	switch {
	case leg.gfni && !gfniHost:
		return "no GFNI body on this host: it needs amd64 with GFNI, AVX2 and OS-enabled YMM state"
	case leg.vector && !vectorHost:
		return "no vector body on this host: it needs amd64 with AVX2 and OS-enabled YMM state"
	}
	return ""
}

// use switches Apply to the leg and returns the switch back to what init
// selected.
func (leg kernelLeg) use() (restore func()) {
	useVector, useGFNI = leg.vector, leg.gfni
	return func() { useVector, useGFNI = vectorHost, gfniHost }
}

// OnKernels runs f as one subtest per kernel leg — "gfni", "vector" and
// "go" — each skipped with the reason on a host that lacks it, so a GFNI
// host still tests the split-nibble path and every host the Go loops.
func OnKernels(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	for _, leg := range kernelLegs {
		t.Run(leg.name, func(t *testing.T) {
			if why := leg.missing(); why != "" {
				t.Skip(why)
			}
			defer leg.use()()
			f(t)
		})
	}
}
