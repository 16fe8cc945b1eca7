package burst

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"mlec/internal/placement"
	"mlec/internal/topology"
)

// bruteForceLRCUnrecoverable enumerates every failure pattern of the
// stripe and sums the probability of the unrecoverable ones according to
// the MR criterion — ground truth for lrcUnrecoverableProb.
func bruteForceLRCUnrecoverable(p placement.LRCParams, slot []float64) float64 {
	n := len(slot)
	total := 0.0
	for mask := 0; mask < 1<<n; mask++ {
		prob := 1.0
		var lost []int
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				prob *= slot[i]
				lost = append(lost, i)
			} else {
				prob *= 1 - slot[i]
			}
		}
		if prob == 0 {
			continue
		}
		if !p.Recoverable(lost, 0) {
			total += prob
		}
	}
	return total
}

func TestLRCUnrecoverableProbBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	configs := []placement.LRCParams{
		{K: 4, L: 2, R: 2},
		{K: 6, L: 2, R: 3},
		{K: 6, L: 3, R: 2},
	}
	for _, p := range configs {
		for trial := 0; trial < 20; trial++ {
			slot := make([]float64, p.Width())
			for i := range slot {
				if rng.Float64() < 0.5 {
					slot[i] = rng.Float64() * 0.6
				}
			}
			got := lrcUnrecoverableProb(p, slot)
			want := bruteForceLRCUnrecoverable(p, slot)
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("%v slot=%v: got %g want %g", p, slot, got, want)
			}
		}
	}
}

func TestLRCEvaluatorZeroOnNoFailures(t *testing.T) {
	topo := topology.Default()
	l := placement.MustNewLRCLayout(topo, placement.LRCParams{K: 14, L: 2, R: 4})
	ev := NewLRCEvaluator(l, 5)
	b := &BurstLayout{Racks: []int{0}, FailedDisks: [][]int{{3}}}
	// One failed disk anywhere: no stripe can lose r+1... in fact a
	// single disk failure is always recoverable → PDL 0? A stripe can
	// have at most 1 chunk on the failed disk; 1 failure is always
	// recoverable.
	if got := ev.ConditionalPDL(b); got != 0 {
		t.Errorf("single-disk burst: PDL %g, want 0", got)
	}
}

// TestLRCScatteredSusceptibility reproduces Figure 16's message: LRC-Dp
// loses data under highly scattered bursts (like Net-Dp SLEC), while MLEC
// with comparable throughput tolerates them far better.
func TestLRCScatteredSusceptibility(t *testing.T) {
	topo := topology.Default()
	l := placement.MustNewLRCLayout(topo, placement.LRCParams{K: 14, L: 2, R: 4})
	ev := NewLRCEvaluator(l, 5)

	// Scattered burst: 60 failures in 60 racks.
	r, err := PDL(ev, 60, 60, 300, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r.PDL <= 0 {
		t.Error("LRC-Dp must be exposed to scattered bursts")
	}

	// MLEC D/D — the weakest MLEC scheme — still tolerates the same
	// scattered burst better: one failure per rack cannot create any
	// catastrophic pool (pl = 3).
	ml := placement.MustNewLayout(topo, placement.DefaultParams(), placement.SchemeDD)
	mr, err := PDL(NewMLECEvaluator(ml), 60, 60, 300, 3)
	if err != nil {
		t.Fatal(err)
	}
	if mr.PDL != 0 {
		t.Errorf("MLEC D/D scattered-burst PDL %g, want 0", mr.PDL)
	}
	t.Logf("scattered burst: LRC-Dp PDL=%.3g, MLEC D/D PDL=%.3g", r.PDL, mr.PDL)
}

// TestLRCLocalizedTolerance: bursts confined to few racks touch at most
// that many chunks per stripe; with ≤ r affected racks the per-stripe
// excess cannot exceed r... it can: multiple failures in one group from
// different racks. But a single-rack burst gives each stripe at most one
// failed chunk, so PDL must be 0.
func TestLRCLocalizedTolerance(t *testing.T) {
	topo := topology.Default()
	l := placement.MustNewLRCLayout(topo, placement.LRCParams{K: 14, L: 2, R: 4})
	ev := NewLRCEvaluator(l, 5)
	r, err := PDL(ev, 1, 120, 200, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r.PDL != 0 {
		t.Errorf("single-rack burst: PDL %g, want 0", r.PDL)
	}
}

// TestLRCEvaluatorDeterministicSeed: the assignment stream is a pure
// function of (evaluator seed, burst layout), so a fixed-seed cell of
// several concurrently running batches is bit-identical run to run and
// whatever the parallelism.
func TestLRCEvaluatorDeterministicSeed(t *testing.T) {
	l := placement.MustNewLRCLayout(topology.Default(), placement.LRCParams{K: 14, L: 2, R: 4})
	run := func() Result {
		r, err := PDLContext(context.Background(), NewLRCEvaluator(l, 5), 30, 60, 5*pdlBatchTrials, 9, "")
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	want := run()
	if want.PDL <= 0 || want.PDL >= 1 {
		t.Fatalf("cell PDL %g does not exercise the assignment sampling", want.PDL)
	}
	for i := 0; i < 20; i++ {
		if got := run(); got != want {
			t.Fatalf("run %d: %+v, first run %+v", i, got, want)
		}
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	if got := run(); got != want {
		t.Fatalf("GOMAXPROCS=1: %+v, GOMAXPROCS=%d: %+v", got, runtime.NumCPU(), want)
	}
	if other, err := PDL(NewLRCEvaluator(l, 6), 30, 60, 5*pdlBatchTrials, 9); err != nil || other.PDL == want.PDL {
		t.Errorf("evaluator seed does not reach the assignments: PDL %g under both seeds (err %v)", other.PDL, err)
	}
}
