package ecdur

import (
	"testing"

	"mlec/internal/failure"
	"mlec/internal/placement"
	"mlec/internal/topology"
)

const lambda = 0.01 / 8760

func slecNines(t *testing.T, k, p int, pl placement.SLECPlacement) float64 {
	t.Helper()
	r, err := SLEC(topology.Default(), placement.SLECParams{K: k, P: p}, pl, lambda, failure.DefaultDetectionDelayHours)
	if err != nil {
		t.Fatal(err)
	}
	return r.Nines
}

func TestMoreParityMoreNines(t *testing.T) {
	for _, pl := range placement.AllSLECPlacements {
		// Keep divisibility: widths 10, 12, 15, 20 divide 120 and 60.
		n2 := slecNines(t, 8, 2, pl)
		n4 := slecNines(t, 8, 4, pl)
		if n4 <= n2 {
			t.Errorf("%v: p=4 (%f nines) not above p=2 (%f)", pl, n4, n2)
		}
	}
}

func TestDurabilityInRange(t *testing.T) {
	for _, pl := range placement.AllSLECPlacements {
		n := slecNines(t, 7, 3, pl)
		if n < 3 || n > 60 {
			t.Errorf("%v (7+3): %f nines implausible", pl, n)
		}
		t.Logf("%v (7+3): %.1f nines", pl, n)
	}
}

// TestDeclusteredRepairHelps: under independent failures, declustered
// placements repair faster and have low coverage probability, giving more
// nines than clustered at the same code (§4.1.3 logic, SLEC edition).
func TestDeclusteredRepairHelps(t *testing.T) {
	cp := slecNines(t, 7, 3, placement.LocalCp)
	dp := slecNines(t, 7, 3, placement.LocalDp)
	if dp <= cp {
		t.Errorf("Loc-Dp (%f) must beat Loc-Cp (%f) on independent failures", dp, cp)
	}
}

func TestSLECValidation(t *testing.T) {
	if _, err := SLEC(topology.Default(), placement.SLECParams{K: 8, P: 3}, placement.LocalCp, lambda, failure.DefaultDetectionDelayHours); err == nil {
		t.Error("non-dividing width accepted")
	}
}

func TestLRCDurability(t *testing.T) {
	r, err := LRC(topology.Default(), placement.LRCParams{K: 14, L: 2, R: 4}, lambda, failure.DefaultDetectionDelayHours)
	if err != nil {
		t.Fatal(err)
	}
	if r.Nines < 5 || r.Nines > 60 {
		t.Errorf("LRC (14,2,4): %f nines implausible", r.Nines)
	}
	t.Logf("LRC-Dp (14,2,4): %.1f nines", r.Nines)
	// More global parities → more nines.
	r2, err := LRC(topology.Default(), placement.LRCParams{K: 14, L: 2, R: 2}, lambda, failure.DefaultDetectionDelayHours)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Nines >= r.Nines {
		t.Errorf("r=2 (%f) should be below r=4 (%f)", r2.Nines, r.Nines)
	}
}

// bruteFatalFraction enumerates every m-subset and applies the MR
// criterion directly — ground truth for the counting DP.
func bruteFatalFraction(p placement.LRCParams, m int) float64 {
	w := p.Width()
	total, fatal := 0, 0
	idx := make([]int, m)
	var rec func(start, depth int)
	rec = func(start, depth int) {
		if depth == m {
			total++
			if !p.Recoverable(append([]int(nil), idx...), 0) {
				fatal++
			}
			return
		}
		for i := start; i < w; i++ {
			idx[depth] = i
			rec(i+1, depth+1)
		}
	}
	rec(0, 0)
	if total == 0 {
		return 0
	}
	return float64(fatal) / float64(total)
}

// TestFatalPatternFractionDPvsBrute cross-validates the counting DP
// against exhaustive enumeration on every pattern size of small codes.
func TestFatalPatternFractionDPvsBrute(t *testing.T) {
	for _, p := range []placement.LRCParams{
		{K: 4, L: 2, R: 2},
		{K: 6, L: 2, R: 3},
		{K: 6, L: 3, R: 2},
		{K: 10, L: 2, R: 2},
	} {
		for m := 0; m <= p.Width() && m <= 8; m++ {
			got := fatalPatternFraction(p, m)
			want := bruteFatalFraction(p, m)
			if diff := got - want; diff > 1e-9 || diff < -1e-9 {
				t.Errorf("%v m=%d: DP %g vs brute %g", p, m, got, want)
			}
		}
	}
}

func TestFatalPatternFraction(t *testing.T) {
	p := placement.LRCParams{K: 4, L: 2, R: 2}
	// m = r+1 = 3: never fatal for the MR code.
	if f := fatalPatternFraction(p, 3); f > 1e-12 {
		t.Errorf("3-failure fatal fraction %g, want 0", f)
	}
	// m = r+2 = 4: some patterns fatal (e.g. 3 in one group + 1 global).
	f := fatalPatternFraction(p, 4)
	if f <= 0 || f >= 1 {
		t.Errorf("4-failure fatal fraction %g outside (0,1)", f)
	}
	// m = l+r+1 = 5: always fatal (up to float rounding in the DP).
	if f := fatalPatternFraction(p, 5); f < 1-1e-9 {
		t.Errorf("5-failure fatal fraction %g, want 1", f)
	}
}

// TestCascadeDetectionFloor: shrinking the detection delay is what
// unlocks declustered durability; conversely the 30-minute floor caps it
// (§5.2.2 F#2). We verify the cascade is sensitive to the cohort windows
// by checking that more stripes per cohort (bigger pool data) can only
// lower durability.
func TestCascadeMoreDataLowerDurability(t *testing.T) {
	topo := topology.Default()
	big := topo
	big.DiskCapacityBytes *= 4
	small, err := SLEC(topo, placement.SLECParams{K: 8, P: 2}, placement.LocalDp, lambda, failure.DefaultDetectionDelayHours)
	if err != nil {
		t.Fatal(err)
	}
	bigger, err := SLEC(big, placement.SLECParams{K: 8, P: 2}, placement.LocalDp, lambda, failure.DefaultDetectionDelayHours)
	if err != nil {
		t.Fatal(err)
	}
	if bigger.Nines > small.Nines {
		t.Errorf("4× disk capacity raised durability: %f vs %f nines", bigger.Nines, small.Nines)
	}
}
