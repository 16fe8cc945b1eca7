package markov

import (
	"math"
	"math/rand"
	"testing"

	"mlec/internal/placement"
	"mlec/internal/topology"
)

func approx(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

// TestRAID5ClosedForm: for n disks, p parities and a constant repair
// rate μ ≫ λ, MTTDL must match its leading-order closed form
// μ^p / (λ^(p+1)·n(n−1)…(n−p)) — the classic μ/(n(n−1)λ²) at p = 1 —
// to within a relative 10·n·λ/μ. The last row is the durability regime
// (μ/λ = 10^10): there the closed form is good to 2e-8, so the row pins
// the recurrence to about seven digits.
func TestRAID5ClosedForm(t *testing.T) {
	for _, c := range []struct {
		n, p       int
		lambda, mu float64
	}{
		{8, 1, 1e-6, 1e-2},
		{10, 2, 1e-6, 1e-2},
		{20, 3, 1e-6, 1e-2},
		{20, 4, 1e-6, 1e-2},
		{100, 4, 1e-9, 10},
	} {
		mu := c.mu
		chain := Chain{N: c.n, P: c.p, LambdaPerHour: c.lambda, RepairRate: func(int) float64 { return mu }}
		got, err := chain.MTTDLHours()
		if err != nil {
			t.Fatal(err)
		}
		want := 1 / c.lambda
		for i := 1; i <= c.p; i++ {
			want *= c.mu / c.lambda
		}
		for i := 0; i <= c.p; i++ {
			want /= float64(c.n - i)
		}
		if tol := 10 * float64(c.n) * c.lambda / c.mu; !approx(got, want, tol) {
			t.Errorf("n=%d p=%d: MTTDL %g, want %g within %g relative", c.n, c.p, got, want, tol)
		}
	}
}

// TestChainMonteCarlo validates the first-passage solution against a
// direct simulation of the birth–death process.
func TestChainMonteCarlo(t *testing.T) {
	c := Chain{
		N: 6, P: 2, LambdaPerHour: 0.01,
		RepairRate: func(f int) float64 { return 0.05 * float64(f) },
	}
	want, err := c.MTTDLHours()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	const trials = 30000
	var sum float64
	for i := 0; i < trials; i++ {
		tHours, f := 0.0, 0
		for f <= c.P {
			beta := float64(c.N-f) * c.LambdaPerHour
			mu := 0.0
			if f > 0 {
				mu = c.RepairRate(f)
			}
			tHours += rng.ExpFloat64() / (beta + mu)
			if rng.Float64() < beta/(beta+mu) {
				f++
			} else {
				f--
			}
		}
		sum += tHours
	}
	got := sum / trials
	if !approx(got, want, 0.03) {
		t.Fatalf("analytic %g vs simulated %g", want, got)
	}
}

func TestChainValidation(t *testing.T) {
	bad := []Chain{
		{N: 0, P: 0, LambdaPerHour: 1},
		{N: 5, P: -1, LambdaPerHour: 1},
		{N: 5, P: 5, LambdaPerHour: 1},
		{N: 5, P: 1, LambdaPerHour: 0},
	}
	for i, c := range bad {
		c.RepairRate = func(int) float64 { return 1 }
		if _, err := c.MTTDLHours(); err == nil {
			t.Errorf("bad chain %d accepted", i)
		}
	}
}

func TestMoreParityMoreMTTDL(t *testing.T) {
	mttdl := func(p int) float64 {
		c := Chain{N: 20, P: p, LambdaPerHour: 1e-6,
			RepairRate: func(int) float64 { return 1e-2 }}
		v, err := c.MTTDLHours()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	prev := 0.0
	for p := 0; p <= 4; p++ {
		v := mttdl(p)
		if v <= prev {
			t.Fatalf("MTTDL(p=%d)=%g not greater than p=%d", p, v, p-1)
		}
		prev = v
	}
}

func TestFasterRepairMoreMTTDL(t *testing.T) {
	mttdl := func(mu float64) float64 {
		c := Chain{N: 10, P: 2, LambdaPerHour: 1e-5,
			RepairRate: func(int) float64 { return mu }}
		v, _ := c.MTTDLHours()
		return v
	}
	if !(mttdl(1e-2) > mttdl(1e-3)) {
		t.Fatal("faster repair must raise MTTDL")
	}
}

func TestMLECRAllSystemPDL(t *testing.T) {
	topo := topology.Default()
	params := placement.DefaultParams()
	lambda := 0.01 / 8760 // ≈1% AFR

	pdls := map[placement.Scheme]float64{}
	for _, s := range placement.AllSchemes {
		l := placement.MustNewLayout(topo, params, s)
		m := MLECRAllModel{Layout: l, LambdaPerHour: lambda}
		pdl, err := m.SystemAnnualPDL()
		if err != nil {
			t.Fatal(err)
		}
		if pdl <= 0 || pdl >= 1 {
			t.Fatalf("%v: PDL %g out of range", s, pdl)
		}
		pdls[s] = pdl
		t.Logf("%v R_ALL annual PDL = %.3g", s, pdl)
	}
	// Under R_ALL's pool-is-lost view, network-declustered placement
	// is strictly worse: any pn+1 catastrophic pools lose data vs only
	// aligned ones (Findings #6/#7 in their R_ALL form).
	if pdls[placement.SchemeDC] <= pdls[placement.SchemeCC] {
		t.Errorf("D/C (%g) must exceed C/C (%g) under R_ALL", pdls[placement.SchemeDC], pdls[placement.SchemeCC])
	}
	if pdls[placement.SchemeDD] <= pdls[placement.SchemeCD] {
		t.Errorf("D/D (%g) must exceed C/D (%g) under R_ALL", pdls[placement.SchemeDD], pdls[placement.SchemeCD])
	}
}

func TestMLECLocalChainRates(t *testing.T) {
	topo := topology.Default()
	params := placement.DefaultParams()
	lambda := 0.01 / 8760

	cp := MLECRAllModel{Layout: placement.MustNewLayout(topo, params, placement.SchemeCC), LambdaPerHour: lambda}
	dp := MLECRAllModel{Layout: placement.MustNewLayout(topo, params, placement.SchemeCD), LambdaPerHour: lambda}
	cpRate, err := cp.CatRatePerPoolHour()
	if err != nil {
		t.Fatal(err)
	}
	dpRate, err := dp.CatRatePerPoolHour()
	if err != nil {
		t.Fatal(err)
	}
	// Per pool, the 120-disk Dp pool fails more often than the 20-disk
	// Cp pool *in the R_ALL/Markov view* (no stripe-coverage discount):
	// more disks, and tolerance is still pl arbitrary failures.
	if dpRate <= cpRate {
		t.Errorf("Markov per-pool rates: Dp %g should exceed Cp %g", dpRate, cpRate)
	}
	t.Logf("Markov catastrophic rates: Cp %.3g/h, Dp %.3g/h", cpRate, dpRate)
}
