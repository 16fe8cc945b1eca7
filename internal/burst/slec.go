package burst

import (
	"math"

	"mlec/internal/mathx"
	"mlec/internal/placement"
)

// SLECEvaluator computes conditional burst PDL for the four single-level
// placements of Figure 13.
type SLECEvaluator struct {
	Layout *placement.SLECLayout
}

// NewSLECEvaluator returns an evaluator over the layout.
func NewSLECEvaluator(l *placement.SLECLayout) *SLECEvaluator { return &SLECEvaluator{Layout: l} }

// TotalRacks implements Evaluator.
func (e *SLECEvaluator) TotalRacks() int { return e.Layout.Topo.Racks }

// DisksPerRack implements Evaluator.
func (e *SLECEvaluator) DisksPerRack() int { return e.Layout.Topo.DisksPerRack() }

// ConditionalPDL implements Evaluator.
func (e *SLECEvaluator) ConditionalPDL(b *BurstLayout) float64 {
	switch e.Layout.Placement {
	case placement.LocalCp:
		return e.localCp(b)
	case placement.LocalDp:
		return e.localDp(b)
	case placement.NetworkCp:
		return e.networkCp(b)
	default:
		return e.networkDp(b)
	}
}

// localCp: pools of k+p disks inside enclosures; every stripe spans its
// whole pool, so loss is certain iff some pool has ≥ p+1 failures.
func (e *SLECEvaluator) localCp(b *BurstLayout) float64 {
	l := e.Layout
	var idBuf [128]int
	// Enclosure size is divisible by the pool width.
	pools := failedPools(idBuf[:0], b, l.Topo.DisksPerRack(), l.Params.Width())
	for len(pools) > 0 {
		f := runLen(pools)
		if f > l.Params.P {
			return 1
		}
		pools = pools[f:]
	}
	return 0
}

// localDp: one declustered pool per enclosure; a pool with f failures
// loses a given stripe with the hypergeometric tail probability.
func (e *SLECEvaluator) localDp(b *BurstLayout) float64 {
	l := e.Layout
	d := l.Topo.DisksPerEnclosure
	var idBuf [128]int
	pools := failedPools(idBuf[:0], b, l.Topo.DisksPerRack(), d)
	stripesPerPool := l.StripesPerPool()
	var expected float64
	for len(pools) > 0 {
		f := runLen(pools)
		if f > l.Params.P {
			q := mathx.HypergeomTail(l.Params.P+1, f, d, l.Params.Width())
			expected += stripesPerPool * q
		}
		pools = pools[f:]
	}
	return -math.Expm1(-expected)
}

// networkCp: racks are grouped by k+p; a stripe places one chunk on a
// uniformly random disk of each rack of its group.
func (e *SLECEvaluator) networkCp(b *BurstLayout) float64 {
	l := e.Layout
	w := l.Params.Width()
	dpr := float64(l.Topo.DisksPerRack())
	stripesPerGroup := l.StripesPerPool() // one pool per group
	var probBuf [64]float64
	var expected float64
	// Racks ascend, so each group's racks are one run of b.Racks.
	for lo, hi := 0, 0; lo < len(b.Racks); lo = hi {
		// Failure probability of a stripe's chunk per rack of the group.
		probs := probBuf[:0]
		for hi = lo; hi < len(b.Racks) && b.Racks[hi]/w == b.Racks[lo]/w; hi++ {
			probs = append(probs, float64(len(b.FailedDisks[hi]))/dpr)
		}
		if len(probs) <= l.Params.P {
			continue // too few affected racks in this group
		}
		pLoss := poissonBinomialTail(probs, l.Params.P+1)
		expected += stripesPerGroup * pLoss
	}
	return -math.Expm1(-expected)
}

// networkDp: a stripe samples k+p distinct racks from the whole system
// and one uniformly random disk within each.
func (e *SLECEvaluator) networkDp(b *BurstLayout) float64 {
	l := e.Layout
	dpr := float64(l.Topo.DisksPerRack())
	var psiBuf [64]float64
	psis := psiBuf[:0]
	for _, failed := range b.FailedDisks {
		psis = append(psis, float64(len(failed))/dpr)
	}
	pLoss := sampledRackLossTail(psis, l.Topo.Racks, l.Params.Width(), l.Params.P+1)
	expected := l.TotalStripes() * pLoss
	return -math.Expm1(-expected)
}
