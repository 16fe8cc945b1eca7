package burst

import (
	"context"
	"math"
	"testing"

	"mlec/internal/placement"
	"mlec/internal/topology"
)

func slecPDL(t *testing.T, topo topology.Config, p placement.SLECParams, pl placement.SLECPlacement, x, y, trials int) float64 {
	t.Helper()
	l, err := placement.NewSLECLayout(topo, p, pl)
	if err != nil {
		t.Fatal(err)
	}
	r, err := PDLContext(context.Background(), NewSLECEvaluator(l), x, y, trials, 777, "")
	if err != nil {
		t.Fatal(err)
	}
	return r.PDL
}

// smallSLECTopo: 6 racks × 2 × 8 disks with a (2+2) code (width 4
// divides both the enclosure size and the rack count... width 4: 8%4==0,
// 6 racks not divisible by 4 — use (2+1), width 3: 8%3 != 0. Use
// enclosures of 8 with (2+2): Net-Cp needs racks%4==0 → 8 racks.
func smallSLECTopo() (topology.Config, placement.SLECParams) {
	topo := topology.Default()
	topo.Racks = 8
	topo.EnclosuresPerRack = 2
	topo.DisksPerEnclosure = 8
	return topo, placement.SLECParams{K: 2, P: 2}
}

// TestSLECLocalVsNetworkTolerance encodes §5.1.3: local SLEC is
// susceptible to localized bursts, network SLEC to scattered bursts.
func TestSLECLocalVsNetworkTolerance(t *testing.T) {
	topo, p := smallSLECTopo()
	const trials = 8000

	// Localized burst: 12 failures in 1 rack.
	locCpLocal := slecPDL(t, topo, p, placement.LocalCp, 1, 12, trials)
	netCpLocal := slecPDL(t, topo, p, placement.NetworkCp, 1, 12, trials)
	if netCpLocal != 0 {
		t.Errorf("Net-Cp must have PDL 0 for single-rack bursts (p=2), got %g", netCpLocal)
	}
	if locCpLocal <= netCpLocal {
		t.Errorf("local SLEC (%g) must suffer more than network SLEC (%g) under localized bursts",
			locCpLocal, netCpLocal)
	}

	// Scattered burst: one failure in each of 8 racks.
	locCpScattered := slecPDL(t, topo, p, placement.LocalCp, 8, 8, trials)
	netDpScattered := slecPDL(t, topo, p, placement.NetworkDp, 8, 8, trials)
	if locCpScattered != 0 {
		t.Errorf("Loc-Cp with ≤1 failure per rack cannot lose data, got %g", locCpScattered)
	}
	if netDpScattered <= 0 {
		t.Error("Net-Dp must be exposed to scattered bursts")
	}
}

// TestSLECDpWorseThanCpLocalized: Loc-Dp has larger pools and therefore a
// higher chance of p+1 failures in one pool (Figure 13b vs 13a).
func TestSLECDpWorseThanCpLocalized(t *testing.T) {
	topo, p := smallSLECTopo()
	const trials = 12000
	cp := slecPDL(t, topo, p, placement.LocalCp, 1, 6, trials)
	dp := slecPDL(t, topo, p, placement.LocalDp, 1, 6, trials)
	if dp < cp {
		t.Errorf("Loc-Dp PDL (%g) must be ≥ Loc-Cp (%g) under localized bursts", dp, cp)
	}
}

// TestSLECNetDpWorseThanNetCpScattered: Net-Dp loses data for any p+1
// scattered failures, Net-Cp only within a rack group (Figure 13d vs 13c).
func TestSLECNetDpWorseThanNetCpScattered(t *testing.T) {
	topo, p := smallSLECTopo()
	const trials = 12000
	cp := slecPDL(t, topo, p, placement.NetworkCp, 8, 8, trials)
	dp := slecPDL(t, topo, p, placement.NetworkDp, 8, 8, trials)
	if dp < cp {
		t.Errorf("Net-Dp PDL (%g) must be ≥ Net-Cp (%g) under scattered bursts", dp, cp)
	}
}

// TestLocalCpGuarantee: with y ≤ p total failures, no pool can reach p+1
// failed disks, so Loc-Cp loses nothing. (The paper's stronger-looking
// y=x+p boundary in Figure 13a is only *approximately* zero: our exact DP
// shows ≈1e-8 there at paper scale — a rack holding p+1 failures can put
// them all in one pool — see TestExactLocalCpPaperScale.)
func TestLocalCpGuarantee(t *testing.T) {
	topo, p := smallSLECTopo()
	for _, x := range []int{1, 2} {
		if got := slecPDL(t, topo, p, placement.LocalCp, x, p.P, 300); got != 0 {
			t.Errorf("Loc-Cp x=%d y=%d: PDL %g, want 0", x, p.P, got)
		}
	}
}

// TestNetworkCpGuarantee: bursts confined to ≤ p racks never lose data in
// Net-Cp.
func TestNetworkCpGuarantee(t *testing.T) {
	topo, p := smallSLECTopo()
	for _, x := range []int{1, 2} {
		if got := slecPDL(t, topo, p, placement.NetworkCp, x, x*16, 300); got != 0 {
			t.Errorf("Net-Cp x=%d: PDL %g, want 0", x, got)
		}
	}
}

// TestExactLocalCpMatchesMonteCarlo is the headline validation: the pure
// dynamic-programming evaluator and the Monte Carlo estimator must agree.
func TestExactLocalCpMatchesMonteCarlo(t *testing.T) {
	topo, p := smallSLECTopo()
	l := placement.MustNewSLECLayout(topo, p, placement.LocalCp)
	for _, c := range []struct{ x, y int }{
		{1, 4}, {1, 8}, {2, 8}, {3, 10}, {4, 12}, {8, 16},
	} {
		exact, err := ExactLocalCpPDL(l, c.x, c.y)
		if err != nil {
			t.Fatal(err)
		}
		r, err := PDLContext(context.Background(), NewSLECEvaluator(l), c.x, c.y, 60000, 31, "")
		if err != nil {
			t.Fatal(err)
		}
		tol := 0.015 + 0.05*exact
		if math.Abs(exact-r.PDL) > tol {
			t.Errorf("x=%d y=%d: exact %.4f vs MC %.4f (±%.4f)", c.x, c.y, exact, r.PDL, tol)
		}
	}
}

func TestExactLocalCpEdges(t *testing.T) {
	topo, p := smallSLECTopo()
	l := placement.MustNewSLECLayout(topo, p, placement.LocalCp)
	// y < x: undefined cell.
	v, err := ExactLocalCpPDL(l, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(v) {
		t.Errorf("y<x: %g, want NaN", v)
	}
	// y ≤ p in one rack: zero (up to float residue in the DP).
	v, err = ExactLocalCpPDL(l, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if v > 1e-12 {
		t.Errorf("y≤p: %g, want ≈0", v)
	}
	// All disks failed: certain loss.
	v, err = ExactLocalCpPDL(l, 8, 8*16)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-1) > 1e-12 {
		t.Errorf("all disks failed: %g, want 1", v)
	}
	// Wrong placement rejected.
	ld := placement.MustNewSLECLayout(topo, p, placement.LocalDp)
	if _, err := ExactLocalCpPDL(ld, 1, 4); err == nil {
		t.Error("ExactLocalCpPDL accepted Loc-Dp")
	}
}

// TestExactLocalCpPaperScale exercises the exact DP on the full 57,600
// disk topology with a (7+3) code.
func TestExactLocalCpPaperScale(t *testing.T) {
	topo := topology.Default()
	l := placement.MustNewSLECLayout(topo, placement.SLECParams{K: 7, P: 3}, placement.LocalCp)
	// The paper's y=x+p "zero" boundary (Figure 13a) is approximately —
	// not exactly — zero: one rack can receive p+1 failures that all
	// land in a single 10-disk pool. The exact DP quantifies it.
	v, err := ExactLocalCpPDL(l, 10, 13)
	if err != nil {
		t.Fatal(err)
	}
	if v <= 0 || v > 1e-6 {
		t.Errorf("guarantee cell: %g, want tiny but positive (≈1e-8)", v)
	}
	// A dense single-rack burst has measurable PDL, monotone in y.
	v30, err := ExactLocalCpPDL(l, 1, 30)
	if err != nil {
		t.Fatal(err)
	}
	v60, err := ExactLocalCpPDL(l, 1, 60)
	if err != nil {
		t.Fatal(err)
	}
	if !(v60 > v30 && v30 > 0) {
		t.Errorf("monotonicity: PDL(30)=%g PDL(60)=%g", v30, v60)
	}
}
