package burst

import (
	"math"

	"mlec/internal/mathx"
	"mlec/internal/placement"
)

// MLECEvaluator computes conditional burst PDL for an MLEC layout
// (Figure 5). It is stateless apart from the layout and safe for
// concurrent use.
type MLECEvaluator struct {
	Layout *placement.Layout
}

// NewMLECEvaluator returns an evaluator over the layout.
func NewMLECEvaluator(l *placement.Layout) *MLECEvaluator { return &MLECEvaluator{Layout: l} }

// TotalRacks implements Evaluator.
func (e *MLECEvaluator) TotalRacks() int { return e.Layout.Topo.Racks }

// DisksPerRack implements Evaluator.
func (e *MLECEvaluator) DisksPerRack() int { return e.Layout.Topo.DisksPerRack() }

// lostStripeFraction returns φ: the expected fraction of a local pool's
// stripes that are lost (≥ pl+1 failed chunks) given f simultaneously
// failed disks in the pool. Clustered pools: every stripe spans every
// pool disk, so φ is 0 or 1. Declustered pools: hypergeometric tail.
func (e *MLECEvaluator) lostStripeFraction(f int) float64 {
	pl := e.Layout.Params.PL
	if f <= pl {
		return 0
	}
	if e.Layout.Scheme.Local == placement.Clustered {
		return 1
	}
	return mathx.HypergeomTail(pl+1, f, e.Layout.LocalPoolSize(), e.Layout.Params.LocalWidth())
}

// ConditionalPDL implements Evaluator: the probability that at least one
// network stripe is lost given the burst layout, integrating over the
// pseudorandom stripe placement exactly.
//
// Every tally below is a run-length count over ascending ids rather
// than a map: the float sums then run in ascending pool, network-pool
// and rack order on every call, which fixes the last ULP of the result.
func (e *MLECEvaluator) ConditionalPDL(b *BurstLayout) float64 {
	l := e.Layout
	pn := l.Params.PN
	var idBuf [128]int
	var phiBuf [32]float64
	ids := failedPools(idBuf[:0], b, l.Topo.DisksPerRack(), l.LocalPoolSize())
	// Keep the catastrophic pools (φ > 0) and their φ, still ascending.
	// The kept ids overwrite the front of ids, behind the read position.
	pools, phis := ids[:0], phiBuf[:0]
	for lo := 0; lo < len(ids); {
		f := runLen(ids[lo:])
		if phi := e.lostStripeFraction(f); phi > 0 {
			pools, phis = append(pools, ids[lo]), append(phis, phi)
		}
		lo += f
	}
	if len(phis) <= pn {
		return 0 // fewer than pn+1 catastrophic pools: no loss possible
	}

	var expectedLost float64
	if l.Scheme.Network == placement.Clustered {
		// Group catastrophic pools by their network pool; a network
		// stripe in that pool holds one (independently declustered)
		// local stripe from each member, so its loss probability is
		// the Poisson-binomial tail over member φ's at pn+1. The stable
		// sort keeps each network pool's φ's in ascending pool order.
		for i, pool := range pools {
			pools[i] = l.NetworkPoolOf(pool)
		}
		sortByKey(pools, phis)
		stripesPerNetPool := l.LocalStripesPerPool()
		for lo := 0; lo < len(pools); {
			members := runLen(pools[lo:])
			if members > pn {
				expectedLost += stripesPerNetPool * poissonBinomialTail(phis[lo:lo+members], pn+1)
			}
			lo += members
		}
	} else {
		// Network-declustered: a network stripe samples kn+pn distinct
		// racks and one local stripe from a uniform pool within each.
		// P(the member from rack r is lost) = Σ_{pools in r} φ / pools
		// per rack. psis overwrites the φ's it has already consumed.
		ppr := l.LocalPoolsPerRack()
		psis := phis[:0]
		for lo, hi := 0, 0; lo < len(pools); lo = hi {
			psi := 0.0
			for hi = lo; hi < len(pools) && pools[hi]/ppr == pools[lo]/ppr; hi++ {
				psi += phis[hi] / float64(ppr)
			}
			psis = append(psis, psi)
		}
		pLoss := sampledRackLossTail(psis, l.Topo.Racks, l.Params.NetworkWidth(), pn+1)
		expectedLost = l.TotalNetworkStripes() * pLoss
	}
	return -math.Expm1(-expectedLost)
}

// sampledRackLossTail returns P(≥ t member losses) for a stripe that
// samples m distinct racks uniformly from totalRacks racks, where a rack
// in psis fails its member with the given probability and all other racks
// never do.
//
// The computation conditions on which affected racks the stripe touches:
// T[j][l] sums, over all j-subsets S of the affected racks, the
// probability of l member losses from S (l capped at t); each subset S is
// touched with probability C(total−a, m−j)/C(total, m).
func sampledRackLossTail(psis []float64, totalRacks, m, t int) float64 {
	a := len(psis)
	if t <= 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	maxJ := a
	if m < maxJ {
		maxJ = m
	}
	// T[j][l] is row j of one flat table: l in [0, t], T[j][t] absorbs ≥ t.
	cols := t + 1
	var tBuf [256]float64 // at most 52 entries for the paper's MLEC D/D, 55 for SLEC Net-Dp
	T := resized(tBuf[:0], (maxJ+1)*cols)
	clear(T)
	T[0] = 1
	for _, psi := range psis {
		// Adding this rack to the (j−1)-subsets that lack it: its member
		// is lost with probability psi. Descending j reads rows the rack
		// has not been added to yet.
		for j := maxJ; j >= 1; j-- {
			prev, cur := T[(j-1)*cols:j*cols], T[j*cols:(j+1)*cols]
			cur[t] += prev[t] + prev[t-1]*psi
			for l := t - 1; l >= 1; l-- {
				cur[l] += prev[l]*(1-psi) + prev[l-1]*psi
			}
			cur[0] += prev[0] * (1 - psi)
		}
	}
	logDen := mathx.LogChoose(totalRacks, m)
	p := 0.0
	for j := 0; j <= maxJ; j++ {
		if m-j > totalRacks-a || m-j < 0 {
			continue
		}
		w := math.Exp(mathx.LogChoose(totalRacks-a, m-j) - logDen)
		p += w * T[j*cols+t]
	}
	if p > 1 {
		p = 1
	}
	return p
}
