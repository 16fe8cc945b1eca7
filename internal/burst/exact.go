package burst

import (
	"fmt"
	"math"

	"mlec/internal/mathx"
	"mlec/internal/placement"
)

// ExactLocalCpPDL computes the burst PDL of a Local-Cp SLEC placement
// exactly, with no sampling: it counts, via dynamic programming, the
// number of ways to scatter y failures across x racks (each rack ≥ 1
// failure) such that no (k+p)-disk pool accumulates more than p failures,
// and divides by the total number of admissible layouts.
//
// This is the paper's "dynamic programming" evaluation strategy (§3) in
// its purest form, and serves as ground truth for the Monte Carlo
// machinery: the tests check PDL() against ExactLocalCpPDL on identical
// configurations.
func ExactLocalCpPDL(l *placement.SLECLayout, x, y int) (float64, error) {
	if l.Placement != placement.LocalCp {
		return 0, fmt.Errorf("burst: ExactLocalCpPDL requires Loc-Cp, got %v", l.Placement)
	}
	dpr := l.Topo.DisksPerRack()
	if x < 1 || y < x || y > x*dpr {
		return math.NaN(), nil
	}
	w := l.Params.Width()
	p := l.Params.P
	poolsPerRack := dpr / w

	// safe[f] = number of ways to place f failed disks within one rack
	// such that every pool has ≤ p failures: the coefficient of z^f in
	// (Σ_{c=0..p} C(w,c) z^c)^poolsPerRack. Computed in linear space;
	// magnitudes stay far below float64 overflow for f ≤ a few hundred.
	maxF := y
	if maxF > dpr {
		maxF = dpr
	}
	poolPoly := make([]float64, min(p, w)+1)
	for c := range poolPoly {
		poolPoly[c] = mathx.Choose(w, c)
	}
	safe := polyPow(poolPoly, poolsPerRack, maxF)

	// all[f] = C(dpr, f): all ways to place f failures in one rack.
	all := make([]float64, maxF+1)
	for f := range all {
		all[f] = mathx.Choose(dpr, f)
	}

	// Convolve across the x racks, requiring ≥1 failure per rack.
	// totalWays[j] and safeWays[j] after i racks.
	safeAcc := []float64{1}
	allAcc := []float64{1}
	for i := 0; i < x; i++ {
		safeAcc = convolveMin1(safeAcc, safe, y)
		allAcc = convolveMin1(allAcc, all, y)
	}
	if len(allAcc) <= y || allAcc[y] == 0 {
		return math.NaN(), nil
	}
	var safeY float64
	if len(safeAcc) > y {
		safeY = safeAcc[y]
	}
	pdl := 1 - safeY/allAcc[y]
	if pdl < 0 {
		pdl = 0
	}
	return pdl, nil
}

// polyPow raises a polynomial (coefficients) to the n-th power, keeping
// coefficients up to degree maxDeg.
func polyPow(poly []float64, n, maxDeg int) []float64 {
	out := []float64{1}
	base := append([]float64(nil), poly...)
	for n > 0 {
		if n&1 == 1 {
			out = polyMul(out, base, maxDeg)
		}
		n >>= 1
		if n > 0 {
			base = polyMul(base, base, maxDeg)
		}
	}
	return out
}

func polyMul(a, b []float64, maxDeg int) []float64 {
	deg := len(a) + len(b) - 2
	if deg > maxDeg {
		deg = maxDeg
	}
	out := make([]float64, deg+1)
	for i, ai := range a {
		if ai == 0 || i > deg {
			continue
		}
		for j, bj := range b {
			if i+j > deg {
				break
			}
			out[i+j] += ai * bj
		}
	}
	return out
}

// convolveMin1 convolves acc with perRack restricted to per-rack counts
// ≥ 1, keeping degree ≤ maxDeg.
func convolveMin1(acc, perRack []float64, maxDeg int) []float64 {
	deg := len(acc) - 1 + len(perRack) - 1
	if deg > maxDeg {
		deg = maxDeg
	}
	out := make([]float64, deg+1)
	for i, ai := range acc {
		if ai == 0 || i > deg {
			continue
		}
		for f := 1; f < len(perRack) && i+f <= deg; f++ {
			out[i+f] += ai * perRack[f]
		}
	}
	return out
}
