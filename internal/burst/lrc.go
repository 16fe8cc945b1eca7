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

	seed int64
}

// lrcAssignments is the number of rack-to-slot assignments averaged per
// ConditionalPDL call.
const lrcAssignments = 8

// NewLRCEvaluator returns an evaluator whose assignment sampling is
// keyed by seed.
func NewLRCEvaluator(l *placement.LRCLayout, seed int64) *LRCEvaluator {
	return &LRCEvaluator{Layout: l, seed: seed}
}

// TotalRacks implements Evaluator.
func (e *LRCEvaluator) TotalRacks() int { return e.Layout.Topo.Racks }

// DisksPerRack implements Evaluator.
func (e *LRCEvaluator) DisksPerRack() int { return e.Layout.Topo.DisksPerRack() }

// Scratch sizes that cover the paper's topologies and codes: the
// evaluators keep buffers up to these sizes on the stack and allocate
// only beyond them.
const (
	stackRacks = 256 // racks of a topology
	stackWidth = 64  // chunks of a stripe
	stackDist  = 16  // entries of a capped count distribution
)

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
	var psiBuf [stackRacks]float64
	psi := resized(psiBuf[:0], racks)
	clear(psi)
	for i, rack := range b.Racks {
		psi[rack] = float64(len(b.FailedDisks[i])) / dpr
	}

	// The assignment stream is splitmix64 keyed by the layout:
	// rngsplit.Mix under a running counter is that generator's output.
	key, draws := rngsplit.Mix(e.seed, int(layoutHash(b))), 0
	var sum float64
	var slotBuf [stackWidth]float64
	var permBuf [stackRacks]int
	var swapBuf [stackWidth]int
	slot, swaps := resized(slotBuf[:0], width), resized(swapBuf[:0], width)
	perm := resized(permBuf[:0], racks)
	for i := range perm {
		perm[i] = i
	}
	for range lrcAssignments {
		// Partial Fisher–Yates: only the stripe's width slots are used.
		for s := range slot {
			// Multiply-shift maps the 64-bit word onto [0, racks−s); its
			// bias is below racks·2⁻⁶⁴, far under Monte-Carlo resolution.
			word, _ := bits.Mul64(uint64(rngsplit.Mix(key, draws)), uint64(racks-s))
			draws++
			j := s + int(word)
			perm[s], perm[j] = perm[j], perm[s]
			swaps[s] = j
			slot[s] = psi[perm[s]]
		}
		sum += lrcUnrecoverableProb(p, slot)
		// Only the width slots and their partners moved: the next
		// assignment starts from the identity again.
		for s, j := range swaps {
			perm[s], perm[j] = s, j
		}
	}
	pUnrec := sum / lrcAssignments
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
	var distBuf, nextBuf, fBuf, exBuf [stackDist]float64
	var probBuf [stackWidth]float64
	dist := poissonBinomialPMFCapped(distBuf[:0], slot[p.K+p.L:], capN)
	next := resized(nextBuf[:0], capN+1)
	for g := 0; g < p.L; g++ {
		probs := append(probBuf[:0], slot[g*groupSize:(g+1)*groupSize]...)
		probs = append(probs, slot[p.K+g])
		fDist := poissonBinomialPMFCapped(fBuf[:0], probs, capN+1)
		// excess_g = max(0, F_g − 1)
		exDist := resized(exBuf[:0], capN+1)
		clear(exDist)
		exDist[0] = fDist[0] + fDist[1]
		for f := 2; f < len(fDist); f++ {
			e := f - 1
			if e > capN {
				e = capN
			}
			exDist[e] += fDist[f]
		}
		convolveCapped(next, dist, exDist, capN)
		dist, next = next, dist
	}
	return dist[capN] // P(total ≥ r+1) = P(unrecoverable)
}

// poissonBinomialPMFCapped returns the PMF of the number of successes of
// independent Bernoulli trials, with all mass ≥ cap absorbed into
// index cap. It writes into dst, reallocating it only to grow.
func poissonBinomialPMFCapped(dst, probs []float64, capN int) []float64 {
	dp := resized(dst, capN+1)
	clear(dp)
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

// convolveCapped writes into out, which holds cap+1 entries, the sum of
// two independent capped distributions, capped at cap.
func convolveCapped(out, a, b []float64, capN int) {
	clear(out[:capN+1])
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
}
