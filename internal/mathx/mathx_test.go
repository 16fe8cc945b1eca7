package mathx

import (
	"math"
	"testing"
	"testing/quick"
)

func approxEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	d := math.Abs(a - b)
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= tol*m || d <= 1e-300
}

func TestLogFactorialSmall(t *testing.T) {
	facts := []float64{1, 1, 2, 6, 24, 120, 720, 5040}
	for n, f := range facts {
		if got := math.Exp(LogFactorial(n)); !approxEqual(got, f, 1e-12) {
			t.Errorf("exp(LogFactorial(%d)) = %g, want %g", n, got, f)
		}
	}
}

func TestLogFactorialLargeMatchesLgamma(t *testing.T) {
	for _, n := range []int{100, 65535, 65536, 100000} {
		lg, _ := math.Lgamma(float64(n) + 1)
		if got := LogFactorial(n); !approxEqual(got, lg, 1e-12) {
			t.Errorf("LogFactorial(%d) = %g, want %g", n, got, lg)
		}
	}
}

func TestChoose(t *testing.T) {
	cases := []struct {
		n, k int
		want float64
	}{
		{5, 2, 10}, {10, 0, 1}, {10, 10, 1}, {10, 11, 0}, {0, 0, 1},
		{52, 5, 2598960}, {-1, 0, 0}, {5, -1, 0},
	}
	for _, c := range cases {
		if got := Choose(c.n, c.k); !approxEqual(got, c.want, 1e-10) {
			t.Errorf("Choose(%d,%d) = %g, want %g", c.n, c.k, got, c.want)
		}
	}
}

func TestPascalIdentityQuick(t *testing.T) {
	if err := quick.Check(func(n, k uint8) bool {
		N, K := int(n%60)+1, int(k%60)
		return approxEqual(Choose(N, K), Choose(N-1, K)+Choose(N-1, K-1), 1e-9)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHypergeomPMFSumsToOne(t *testing.T) {
	for _, c := range []struct{ succ, pop, sample int }{
		{4, 120, 20}, {3, 20, 20}, {10, 100, 30},
	} {
		s := 0.0
		for x := 0; x <= c.sample; x++ {
			s += HypergeomPMF(x, c.succ, c.pop, c.sample)
		}
		if !approxEqual(s, 1, 1e-9) {
			t.Errorf("PMF sum for %+v = %g", c, s)
		}
	}
}

func TestHypergeomPaperStripeLossFraction(t *testing.T) {
	// DESIGN.md §4: in a 120-disk local-Dp pool with 4 failed disks, the
	// probability a 20-chunk stripe covers all 4 failed disks is
	// C(116,16)/C(120,20) ≈ 5.9e-4. This drives the R_HYB 3.1 TB figure.
	got := HypergeomPMF(4, 4, 120, 20)
	want := Choose(116, 16) / Choose(120, 20)
	if !approxEqual(got, want, 1e-9) {
		t.Fatalf("PMF(4;4,120,20) = %g, want %g", got, want)
	}
	if got < 5.5e-4 || got > 6.5e-4 {
		t.Fatalf("stripe-loss fraction %g out of expected range ~5.9e-4", got)
	}
}

func TestHypergeomTail(t *testing.T) {
	// Tail at 0 is 1; tail beyond max is 0; monotone non-increasing.
	prev := 1.0
	for x := 0; x <= 21; x++ {
		tail := HypergeomTail(x, 4, 120, 20)
		if tail > prev+1e-12 {
			t.Fatalf("tail not monotone at x=%d", x)
		}
		prev = tail
	}
	if HypergeomTail(5, 4, 120, 20) != 0 {
		t.Fatal("tail beyond succ must be 0")
	}
}

func TestOneMinusPow(t *testing.T) {
	if got := OneMinusPow(0.5, 1); !approxEqual(got, 0.5, 1e-12) {
		t.Errorf("OneMinusPow(0.5,1) = %g", got)
	}
	if got := OneMinusPow(0.5, 2); !approxEqual(got, 0.75, 1e-12) {
		t.Errorf("OneMinusPow(0.5,2) = %g", got)
	}
	// Tiny p, huge n: compare against expm1 identity.
	p, n := 1e-12, 1e9
	want := -math.Expm1(n * math.Log1p(-p))
	if got := OneMinusPow(p, n); !approxEqual(got, want, 1e-9) {
		t.Errorf("OneMinusPow tiny = %g, want %g", got, want)
	}
	if OneMinusPow(0, 10) != 0 || OneMinusPow(1, 10) != 1 {
		t.Error("boundary values wrong")
	}
}

func TestNinesRoundTrip(t *testing.T) {
	for _, pdl := range []float64{0.5, 1e-3, 1e-9, 1e-30} {
		n := Nines(pdl)
		if got := math.Pow(10, -n); !approxEqual(got, pdl, 1e-9) {
			t.Errorf("round trip pdl=%g → nines=%g → %g", pdl, n, got)
		}
	}
	if !math.IsInf(Nines(0), 1) {
		t.Error("Nines(0) must be +Inf")
	}
	if Nines(1) != 0 || Nines(2) != 0 {
		t.Error("Nines(≥1) must be 0")
	}
}

func TestBinomialTail(t *testing.T) {
	// Exact small case: n=3, p=0.5 → P(X≥2) = 0.5
	if got := BinomialTail(3, 0.5, 2); !approxEqual(got, 0.5, 1e-12) {
		t.Errorf("BinomialTail(3,0.5,2) = %g", got)
	}
	if BinomialTail(5, 0.3, 0) != 1 {
		t.Error("tail at 0 must be 1")
	}
	if BinomialTail(5, 0.3, 6) != 0 {
		t.Error("tail beyond n must be 0")
	}
	if BinomialTail(5, 0, 1) != 0 || BinomialTail(5, 1, 5) != 1 {
		t.Error("degenerate p values wrong")
	}
}

func TestPoissonOverlapRate(t *testing.T) {
	// r=1: any event counts → rate m·λ.
	if got := PoissonOverlapRate(10, 0.01, 5, 1); !approxEqual(got, 0.1, 1e-12) {
		t.Errorf("r=1 rate = %g", got)
	}
	// m < r: impossible.
	if PoissonOverlapRate(2, 0.01, 5, 3) != 0 {
		t.Error("m<r must be 0")
	}
	// First-order check against the standard two-overlap formula
	// m·λ·(m−1)·λ·w for tiny λw.
	m, lambda, w := 12, 1e-6, 10.0
	got := PoissonOverlapRate(m, lambda, w, 2)
	want := float64(m) * lambda * (1 - math.Pow(1-(-math.Expm1(-lambda*w)), float64(m-1)))
	if !approxEqual(got, want, 1e-6) {
		t.Errorf("2-overlap rate = %g, want ≈ %g", got, want)
	}
	// Monotonicity: more sources → higher rate; higher r → lower rate.
	if PoissonOverlapRate(20, lambda, w, 2) <= got {
		t.Error("rate must grow with m")
	}
	if PoissonOverlapRate(m, lambda, w, 3) >= got {
		t.Error("rate must shrink with r")
	}
}

func TestRateToAnnualPDL(t *testing.T) {
	if got := RateToAnnualPDL(0); got != 0 {
		t.Errorf("zero rate → %g", got)
	}
	// Tiny rates: PDL ≈ rate × 8760.
	r := 1e-12
	if got := RateToAnnualPDL(r); !approxEqual(got, r*8760, 1e-6) {
		t.Errorf("tiny-rate PDL = %g", got)
	}
	// Huge rates saturate at 1.
	if got := RateToAnnualPDL(100); !approxEqual(got, 1, 1e-12) {
		t.Errorf("huge-rate PDL = %g", got)
	}
}

func TestWilsonInterval(t *testing.T) {
	lo, hi := WilsonInterval(0, 0)
	if lo != 0 || hi != 1 {
		t.Error("empty sample must give [0,1]")
	}
	lo, hi = WilsonInterval(50, 100)
	if lo >= 0.5 || hi <= 0.5 {
		t.Errorf("interval [%g,%g] must contain 0.5", lo, hi)
	}
	if hi-lo > 0.25 {
		t.Errorf("interval [%g,%g] too wide for n=100", lo, hi)
	}
	// Zero successes still has hi > 0 (rule-of-three-like behaviour).
	lo, hi = WilsonInterval(0, 1000)
	if lo > 1e-12 || hi <= 0 || hi > 0.01 {
		t.Errorf("zero-success interval [%g,%g]", lo, hi)
	}
}
