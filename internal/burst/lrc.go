package burst

import (
	"math"
	"math/bits"

	"mlec/internal/mathx/rngsplit"
	"mlec/internal/placement"
)

// LRCEvaluator computes conditional burst PDL for the LRC-Dp placement of
// Figure 16: every chunk of a (k,l,r) stripe on a uniformly random disk
// of a distinct rack.
//
// Given a burst layout, the evaluator samples a small number of
// rack-to-slot assignments per call and, for each, computes the exact
// probability that the resulting failure pattern is unrecoverable under
// the Maximally Recoverable criterion (placement.LRCParams.Recoverable),
// by convolving the per-group excess distributions with the global-parity
// failure distribution.
//
// The assignments are a pure function of (seed, burst layout): the
// evaluator holds no generator state, so concurrent batches cannot
// reorder each other's draws and a fixed-seed cell is reproducible.
type LRCEvaluator struct {
	Layout *placement.LRCLayout
	// Assignments is the number of rack-to-slot assignments averaged
	// per ConditionalPDL call (default 8).
	Assignments int

	seed int64
}

// NewLRCEvaluator returns an evaluator whose assignment sampling is
// keyed by seed.
func NewLRCEvaluator(l *placement.LRCLayout, seed int64) *LRCEvaluator {
	return &LRCEvaluator{Layout: l, Assignments: 8, seed: seed}
}

// TotalRacks implements Evaluator.
func (e *LRCEvaluator) TotalRacks() int { return e.Layout.Topo.Racks }

// DisksPerRack implements Evaluator.
func (e *LRCEvaluator) DisksPerRack() int { return e.Layout.Topo.DisksPerRack() }

// ConditionalPDL implements Evaluator.
func (e *LRCEvaluator) ConditionalPDL(b *BurstLayout) float64 {
	l := e.Layout
	p := l.Params
	width := p.Width()
	racks := l.Topo.Racks
	dpr := float64(l.Topo.DisksPerRack())

	// Per-rack chunk failure probabilities; unaffected racks contribute
	// 0 but dilute the assignment. We sample assignments of width
	// distinct racks out of Topo.Racks and map each to its ψ.
	psi := make([]float64, racks)
	for i, rack := range b.Racks {
		psi[rack] = float64(len(b.FailedDisks[i])) / dpr
	}

	assignments := e.Assignments
	if assignments <= 0 {
		assignments = 8
	}
	// The assignment stream is splitmix64 keyed by the layout:
	// rngsplit.Mix under a running counter is that generator's output.
	key, draws := rngsplit.Mix(e.seed, int(layoutHash(b))), 0
	var sum float64
	slot := make([]float64, width)
	perm := make([]int, racks)
	for a := 0; a < assignments; a++ {
		for i := range perm {
			perm[i] = i
		}
		// Partial Fisher–Yates: only the stripe's width slots are used.
		for s := range slot {
			// Multiply-shift maps the 64-bit word onto [0, racks−s); its
			// bias is below racks·2⁻⁶⁴, far under Monte-Carlo resolution.
			word, _ := bits.Mul64(uint64(rngsplit.Mix(key, draws)), uint64(racks-s))
			draws++
			j := s + int(word)
			perm[s], perm[j] = perm[j], perm[s]
			slot[s] = psi[perm[s]]
		}
		sum += lrcUnrecoverableProb(p, slot)
	}
	pUnrec := sum / float64(assignments)
	expected := l.TotalStripes() * pUnrec
	return -math.Expm1(-expected)
}

// layoutHash is FNV-1a over the layout's racks and failed disks, word by
// word, each rack followed by its failure count so that list boundaries
// enter the hash.
func layoutHash(b *BurstLayout) uint64 {
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	for i, rack := range b.Racks {
		h = (h ^ uint64(rack)) * prime
		h = (h ^ uint64(len(b.FailedDisks[i]))) * prime
		for _, d := range b.FailedDisks[i] {
			h = (h ^ uint64(d)) * prime
		}
	}
	return h
}

// lrcUnrecoverableProb returns the exact probability that a stripe whose
// slots fail independently with the given probabilities forms an
// unrecoverable pattern: Σ_g max(0, F_g − 1) + GF > r, where F_g counts
// failures among group g's data chunks plus its local parity and GF
// counts failed global parities.
//
// Slot order: [0,k) data, [k,k+l) local parities, [k+l,k+l+r) globals.
func lrcUnrecoverableProb(p placement.LRCParams, slot []float64) float64 {
	groupSize := p.K / p.L
	// excessDist starts as the distribution of GF (values 0..r+1 capped)
	// and gets convolved with each group's excess distribution.
	capN := p.R + 1
	dist := poissonBinomialPMFCapped(slot[p.K+p.L:], capN)
	for g := 0; g < p.L; g++ {
		probs := make([]float64, 0, groupSize+1)
		probs = append(probs, slot[g*groupSize:(g+1)*groupSize]...)
		probs = append(probs, slot[p.K+g])
		fDist := poissonBinomialPMFCapped(probs, capN+1)
		// excess_g = max(0, F_g − 1)
		exDist := make([]float64, capN+1)
		exDist[0] = fDist[0] + fDist[1]
		for f := 2; f < len(fDist); f++ {
			e := f - 1
			if e > capN {
				e = capN
			}
			exDist[e] += fDist[f]
		}
		dist = convolveCapped(dist, exDist, capN)
	}
	return dist[capN] // P(total ≥ r+1) = P(unrecoverable)
}

// poissonBinomialPMFCapped returns the PMF of the number of successes of
// independent Bernoulli trials, with all mass ≥ cap absorbed into
// index cap.
func poissonBinomialPMFCapped(probs []float64, capN int) []float64 {
	dp := make([]float64, capN+1)
	dp[0] = 1
	for _, p := range probs {
		if p == 0 {
			continue
		}
		for j := capN; j >= 1; j-- {
			if j == capN {
				dp[j] = dp[j] + dp[j-1]*p
			} else {
				dp[j] = dp[j]*(1-p) + dp[j-1]*p
			}
		}
		dp[0] *= 1 - p
	}
	return dp
}

// convolveCapped adds two independent capped distributions, capping the
// sum at cap.
func convolveCapped(a, b []float64, capN int) []float64 {
	out := make([]float64, capN+1)
	for i, pa := range a {
		if pa == 0 {
			continue
		}
		for j, pb := range b {
			if pb == 0 {
				continue
			}
			s := i + j
			if s > capN {
				s = capN
			}
			out[s] += pa * pb
		}
	}
	return out
}
