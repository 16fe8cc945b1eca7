// Package mathx provides numerically stable combinatorial and probability
// helpers used by the burst-PDL dynamic programming, the splitting
// estimator, and the Markov durability models: log-domain binomial
// coefficients, hypergeometric distributions, Poisson overlap rates, and
// "nines" arithmetic. Prob, Rate and AFR carry the three units every
// durability number passes through, so mixing them is a compile error.
package mathx

import "math"

// Prob is a probability, such as an annual probability of data loss.
type Prob float64

// Rate is an event rate per hour: a failure rate λ, a repair rate μ, a
// catastrophic-pool or data-loss rate.
type Rate float64

// AFR is an annual failure rate: the probability that a disk fails
// within one year (0.01 for the paper's 1 %).
type AFR float64

// HoursPerYear is the conversion used throughout (365-day year, matching
// the paper's annualized metrics).
const HoursPerYear = 8760.0

// PerHour is the exponential hazard −ln(1−a)/8760 of an AFR: the rate
// whose exponential lifetime fails within a year with probability a.
// The simulators draw failures at this rate.
func (a AFR) PerHour() Rate { return Rate(-math.Log1p(-float64(a)) / HoursPerYear) }

// LinearPerHour is a/8760, the AFR spread evenly over the year's hours:
// the first-order term of PerHour, which the Markov chains and the
// analytic models take. PerHour is 0.5 % higher at 1 % AFR and 5.4 %
// higher at 10 % (DESIGN.md §5).
func (a AFR) LinearPerHour() Rate { return Rate(float64(a) / HoursPerYear) }

// AnnualPDL is the probability of at least one event in a year (8760 h)
// at rate r: 1−e^(−r·8760).
func (r Rate) AnnualPDL() Prob { return Prob(-math.Expm1(-float64(r) * HoursPerYear)) }

// lgammaCacheSize bounds the factorial cache; larger arguments fall back
// to math.Lgamma directly.
const lgammaCacheSize = 1 << 16

var logFactCache []float64

func init() {
	logFactCache = make([]float64, lgammaCacheSize)
	for i := 2; i < lgammaCacheSize; i++ {
		logFactCache[i] = logFactCache[i-1] + math.Log(float64(i))
	}
}

// LogFactorial returns ln(n!). Negative arguments return NaN, following
// the math package's convention for domain errors (math.Sqrt(-1)).
func LogFactorial(n int) float64 {
	if n < 0 {
		return math.NaN()
	}
	if n < lgammaCacheSize {
		return logFactCache[n]
	}
	lg, _ := math.Lgamma(float64(n) + 1)
	return lg
}

// LogChoose returns ln(C(n, k)), or -Inf when the coefficient is zero.
func LogChoose(n, k int) float64 {
	if k < 0 || k > n || n < 0 {
		return math.Inf(-1)
	}
	return LogFactorial(n) - LogFactorial(k) - LogFactorial(n-k)
}

// Choose returns C(n, k) as a float64 (may overflow to +Inf for huge
// arguments; use LogChoose in tail computations).
func Choose(n, k int) float64 {
	if k < 0 || k > n || n < 0 {
		return 0
	}
	return math.Exp(LogChoose(n, k))
}

// HypergeomPMF returns P(X = x) where X counts successes in a draw of
// sample items, without replacement, from a population of size popSize
// containing succ successes.
func HypergeomPMF(x, succ, popSize, sample int) float64 {
	if x < 0 || x > succ || sample-x > popSize-succ || x > sample {
		return 0
	}
	lp := LogChoose(succ, x) + LogChoose(popSize-succ, sample-x) - LogChoose(popSize, sample)
	return math.Exp(lp)
}

// HypergeomTail returns P(X ≥ x) for the hypergeometric distribution
// described in HypergeomPMF.
func HypergeomTail(x, succ, popSize, sample int) float64 {
	if x <= 0 {
		return 1
	}
	hi := succ
	if sample < hi {
		hi = sample
	}
	s := 0.0
	for i := x; i <= hi; i++ {
		s += HypergeomPMF(i, succ, popSize, sample)
	}
	if s > 1 {
		s = 1
	}
	return s
}

// OneMinusPow returns 1-(1-p)^n computed stably for tiny p and huge n
// (≈ -expm1(n·log1p(-p))).
func OneMinusPow(p float64, n float64) float64 {
	if p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1
	}
	return -math.Expm1(n * math.Log1p(-p))
}

// Nines converts a probability of data loss into "number of nines" of
// durability: nines = -log10(pdl). PDL 0 maps to +Inf.
func Nines(pdl Prob) float64 {
	if pdl <= 0 {
		return math.Inf(1)
	}
	if pdl >= 1 {
		return 0
	}
	return -math.Log10(float64(pdl))
}

// PoissonOverlapRate returns the steady-state rate (events per unit time)
// at which at least r of m independent sources — each generating events at
// rate lambda with fixed duration w — are simultaneously active.
//
// Derivation: a "candidate overlap" completes when a new event arrives
// (total arrival rate m·λ) while at least r−1 of the remaining m−1 sources
// are active. Each other source is active with probability q = 1−e^(−λw)
// ≈ λw. So rate ≈ m·λ · P(Binomial(m−1, q) ≥ r−1). For the tiny q of
// durability analysis the binomial tail is dominated by its first term.
func PoissonOverlapRate(m int, lambda Rate, w float64, r int) Rate {
	if r <= 0 {
		return Rate(math.Inf(1))
	}
	if r == 1 {
		return Rate(m) * lambda
	}
	if m < r || lambda <= 0 || w <= 0 {
		return 0
	}
	q := -math.Expm1(-float64(lambda) * w) // P(a given other source is active)
	return Rate(float64(m) * float64(lambda) * BinomialTail(m-1, q, r-1))
}

// BinomialTail returns P(Binomial(n, p) ≥ k), computed in a numerically
// careful way for small p (sums ascending terms from k).
func BinomialTail(n int, p float64, k int) float64 {
	if k <= 0 {
		return 1
	}
	if k > n || p <= 0 {
		return 0
	}
	if p >= 1 {
		return 1
	}
	lp, lq := math.Log(p), math.Log1p(-p)
	s := 0.0
	for i := k; i <= n; i++ {
		term := math.Exp(LogChoose(n, i) + float64(i)*lp + float64(n-i)*lq)
		s += term
		// For small p the series decays geometrically; stop once
		// terms stop mattering.
		if term < s*1e-15 {
			break
		}
	}
	if s > 1 {
		s = 1
	}
	return s
}

// WilsonInterval returns the 95% Wilson score interval for a binomial
// proportion with x successes out of n trials. Used to attach confidence
// intervals to Monte-Carlo PDL estimates.
func WilsonInterval(x, n int) (lo, hi float64) {
	if n == 0 {
		return 0, 1
	}
	const z = 1.96
	p := float64(x) / float64(n)
	nf := float64(n)
	denom := 1 + z*z/nf
	center := (p + z*z/(2*nf)) / denom
	half := z * math.Sqrt(p*(1-p)/nf+z*z/(4*nf*nf)) / denom
	lo, hi = center-half, center+half
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return lo, hi
}
