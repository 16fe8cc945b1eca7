package burst

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"mlec/internal/topology"
)

func TestSampleLayoutShape(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		x := 1 + rng.Intn(10)
		y := x + rng.Intn(30)
		b, err := SampleLayout(rng, 60, 960, x, y)
		if err != nil {
			t.Fatal(err)
		}
		if len(b.Racks) != x || len(b.FailedDisks) != x {
			t.Fatalf("layout has %d racks, want %d", len(b.Racks), x)
		}
		if b.TotalFailures() != y {
			t.Fatalf("layout has %d failures, want %d", b.TotalFailures(), y)
		}
		seenRack := map[int]bool{}
		for i, r := range b.Racks {
			if r < 0 || r >= 60 || seenRack[r] {
				t.Fatalf("bad rack %d", r)
			}
			seenRack[r] = true
			if len(b.FailedDisks[i]) == 0 {
				t.Fatal("rack with zero failures")
			}
			seenDisk := map[int]bool{}
			for _, d := range b.FailedDisks[i] {
				if d < 0 || d >= 960 || seenDisk[d] {
					t.Fatalf("bad disk %d", d)
				}
				seenDisk[d] = true
			}
		}
	}
}

func TestSampleLayoutTightCorner(t *testing.T) {
	// y == x forces exactly one failure per rack, a cell where coverage
	// by chance almost never happens.
	rng := rand.New(rand.NewSource(2))
	b, err := SampleLayout(rng, 60, 960, 50, 50)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range b.FailedDisks {
		if len(d) != 1 {
			t.Fatalf("rack has %d failures, want 1", len(d))
		}
	}
}

func TestSampleLayoutErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	if _, err := SampleLayout(rng, 60, 960, 0, 5); err == nil {
		t.Error("x=0 accepted")
	}
	if _, err := SampleLayout(rng, 60, 960, 61, 100); err == nil {
		t.Error("x>racks accepted")
	}
	if _, err := SampleLayout(rng, 60, 960, 5, 4); err == nil {
		t.Error("y<x accepted")
	}
	if _, err := SampleLayout(rng, 2, 3, 2, 7); err == nil {
		t.Error("y>x·dpr accepted")
	}
}

// bruteForceTail enumerates all outcomes of independent Bernoulli trials.
func bruteForceTail(probs []float64, k int) float64 {
	n := len(probs)
	total := 0.0
	for mask := 0; mask < 1<<n; mask++ {
		p, cnt := 1.0, 0
		for i := 0; i < n; i++ {
			if mask&(1<<i) != 0 {
				p *= probs[i]
				cnt++
			} else {
				p *= 1 - probs[i]
			}
		}
		if cnt >= k {
			total += p
		}
	}
	return total
}

func TestPoissonBinomialTailBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(10)
		probs := make([]float64, n)
		for i := range probs {
			probs[i] = rng.Float64()
		}
		for k := 0; k <= n+1; k++ {
			got := poissonBinomialTail(probs, k)
			want := bruteForceTail(probs, k)
			if math.Abs(got-want) > 1e-9 {
				t.Fatalf("n=%d k=%d got %g want %g", n, k, got, want)
			}
		}
	}
}

func TestPoissonBinomialPMFCapped(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(8)
		probs := make([]float64, n)
		for i := range probs {
			probs[i] = rng.Float64()
		}
		capN := 1 + rng.Intn(n)
		pmf := poissonBinomialPMFCapped(nil, probs, capN)
		// Sum of PMF must be 1; tail entry must equal the tail.
		sum := 0.0
		for _, v := range pmf {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("PMF sums to %g", sum)
		}
		if got, want := pmf[capN], bruteForceTail(probs, capN); math.Abs(got-want) > 1e-9 {
			t.Fatalf("capped tail %g want %g", got, want)
		}
	}
}

// TestSampledRackLossTailMonteCarlo validates the subset-DP against a
// direct simulation of the stripe-sampling process.
func TestSampledRackLossTailMonteCarlo(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const totalRacks, m, threshold = 12, 5, 2
	psis := []float64{0.8, 0.5, 0.3, 0.9}
	got := sampledRackLossTail(psis, totalRacks, m, threshold)

	const trials = 400000
	hits := 0
	for i := 0; i < trials; i++ {
		picked := rng.Perm(totalRacks)[:m]
		losses := 0
		for _, r := range picked {
			if r < len(psis) && rng.Float64() < psis[r] {
				losses++
			}
		}
		if losses >= threshold {
			hits++
		}
	}
	want := float64(hits) / trials
	if math.Abs(got-want) > 0.005 {
		t.Fatalf("DP %g vs MC %g", got, want)
	}
}

func TestSampledRackLossTailEdges(t *testing.T) {
	if got := sampledRackLossTail(nil, 10, 3, 1); got != 0 {
		t.Errorf("no affected racks → %g", got)
	}
	if got := sampledRackLossTail([]float64{0.5}, 10, 3, 0); got != 1 {
		t.Errorf("threshold 0 → %g", got)
	}
	// Single affected rack, threshold 1: P = P(pick it)·ψ = (m/R)·ψ.
	got := sampledRackLossTail([]float64{0.5}, 10, 3, 1)
	if want := 0.3 * 0.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("single-rack case %g want %g", got, want)
	}
	// All racks certain to fail their member: P(≥m)=1 at threshold m.
	psis := []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	if got := sampledRackLossTail(psis, 10, 4, 4); math.Abs(got-1) > 1e-12 {
		t.Errorf("certain case %g", got)
	}
}

func TestPDLInvalidCells(t *testing.T) {
	topo := topology.Default()
	_ = topo
	ev := &fakeEvaluator{racks: 60, dpr: 960, val: 0.5}
	r, err := PDLContext(context.Background(), ev, 10, 5, 100, 1, "") // y < x
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(r.PDL) {
		t.Errorf("y<x PDL = %g, want NaN", r.PDL)
	}
	if _, err := PDLContext(context.Background(), ev, 1, 1, 0, 1, ""); err == nil {
		t.Error("trials=0 accepted")
	}
}

type fakeEvaluator struct {
	racks, dpr int
	val        float64
}

func (f *fakeEvaluator) ConditionalPDL(*BurstLayout) float64 { return f.val }
func (f *fakeEvaluator) TotalRacks() int                     { return f.racks }
func (f *fakeEvaluator) DisksPerRack() int                   { return f.dpr }

func TestPDLAveragesConditionals(t *testing.T) {
	ev := &fakeEvaluator{racks: 60, dpr: 960, val: 0.25}
	r, err := PDLContext(context.Background(), ev, 3, 30, 500, 7, "")
	if err != nil {
		t.Fatal(err)
	}
	if r.PDL != 0.25 {
		t.Errorf("PDL = %g, want 0.25", r.PDL)
	}
	if r.Trials != 500 {
		t.Errorf("Trials = %d", r.Trials)
	}
	if r.Lo > 0.25 || r.Hi < 0.25 {
		t.Errorf("CI [%g,%g] excludes the mean", r.Lo, r.Hi)
	}
}

func TestHeatmapShape(t *testing.T) {
	ev := &fakeEvaluator{racks: 60, dpr: 960, val: 0.1}
	g, err := HeatmapContext(context.Background(), ev, []int{1, 3, 5}, []int{5, 10}, 50, 11, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Cells) != 2 || len(g.Cells[0]) != 3 {
		t.Fatalf("grid shape %dx%d", len(g.Cells), len(g.Cells[0]))
	}
	if g.Cells[1][2].Racks != 5 || g.Cells[1][2].Failures != 10 {
		t.Error("cell coordinates wrong")
	}
}

func TestResultNines(t *testing.T) {
	r := Result{PDL: 1e-3}
	if got := r.Nines(); math.Abs(got-3) > 1e-12 {
		t.Errorf("Nines = %g", got)
	}
}
