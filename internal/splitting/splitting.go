// Package splitting runs the paper's splitting methodology (§3) from a
// layout. Stage 1 — the catastrophic-local-pool rate and state — comes by
// one of two routes: the poolsim splitting estimator (SplitStage1) or the
// R_ALL Markov chain (MarkovStage1). Stage 2 composes it with the network
// level to estimate system durability — the paper's Figure 10 and the
// durability axes of Figures 12 and 15.
//
// Composition: catastrophic pool events arrive per pool at rate λ and
// keep the pool in the catastrophic state for a repair-method-dependent
// window W (repair.CatastrophicWindowHours plus detection). Data is lost
// when p_n+1 pools overlap in the catastrophic state within one network
// pool (network-clustered) or across distinct racks (network-
// declustered), and the overlapping pools' actually-lost stripes align
// into one network stripe — probability 1 under R_ALL's whole-pool view,
// and the exact Poisson-binomial/hypergeometric value when the repairer
// knows the lost chunks (R_FCO and better).
package splitting

import (
	"context"
	"fmt"

	"mlec/internal/burst"
	"mlec/internal/failure"
	"mlec/internal/markov"
	"mlec/internal/mathx"
	"mlec/internal/placement"
	"mlec/internal/poolsim"
	"mlec/internal/repair"
)

// Stage1 summarizes the local-pool behaviour feeding the network level.
type Stage1 struct {
	// CatRatePerPoolHour is the catastrophic-event rate of one pool.
	CatRatePerPoolHour mathx.Rate
	// CatRateLo and CatRateHi bound the rate as the splitting estimator
	// reports it (poolsim.SplitResult); both are zero on the Markov route,
	// which has no sampling error.
	CatRateLo, CatRateHi mathx.Rate
	// FailedDisksAtCat is the typical number of failed disks at the
	// catastrophic instant (pl+1 unless samples say otherwise).
	FailedDisksAtCat int
	// LostStripeFraction is φ: the fraction of the pool's stripes that
	// are actually lost at the catastrophic instant.
	LostStripeFraction float64
	// Partial marks a stage 1 from an interrupted splitting campaign.
	Partial bool
}

// MarkovStage1 is stage 1 from the R_ALL Markov chain of l's local pool,
// at the per-hour failure rate afr.LinearPerHour().
func MarkovStage1(l *placement.Layout, afr mathx.AFR) (Stage1, error) {
	m := markov.MLECRAllModel{Layout: l, LambdaPerHour: afr.LinearPerHour()}
	rate, err := m.CatRatePerPoolHour()
	if err != nil {
		return Stage1{}, err
	}
	// Without samples stage 1 reads only the pool's geometry: pl+1 failed
	// disks and the analytic φ, at any granularity.
	return Stage1FromSplit(poolsim.ConfigFor(l, 0), poolsim.SplitResult{CatRatePerPoolHour: float64(rate)}), nil
}

// SplitStage1 is stage 1 from the splitting estimator on one local pool
// of l at segmentsPerDisk granularity, under exponential failures at the
// given AFR. Cancelling ctx returns a Partial stage 1 whose CatRateHi
// covers the levels left unexplored.
func SplitStage1(ctx context.Context, l *placement.Layout, segmentsPerDisk int, afr mathx.AFR,
	sc poolsim.SplitConfig) (Stage1, error) {
	ttf, err := failure.NewExponentialAFR(afr)
	if err != nil {
		return Stage1{}, err
	}
	cfg := poolsim.ConfigFor(l, segmentsPerDisk)
	res, err := poolsim.SplitContext(ctx, cfg, ttf, sc)
	if err != nil {
		return Stage1{}, err
	}
	return Stage1FromSplit(cfg, res), nil
}

// Stage1FromSplit derives Stage1 from a poolsim splitting run.
func Stage1FromSplit(cfg poolsim.Config, res poolsim.SplitResult) Stage1 {
	s := Stage1{
		CatRatePerPoolHour: mathx.Rate(res.CatRatePerPoolHour),
		CatRateLo:          mathx.Rate(res.CatRateLo),
		CatRateHi:          mathx.Rate(res.CatRateHi),
		FailedDisksAtCat:   cfg.Parity + 1,
		Partial:            res.Partial,
	}
	if len(res.Samples) > 0 {
		var fd, lost float64
		for _, smp := range res.Samples {
			fd += float64(smp.FailedDisks)
			lost += float64(smp.LostStripes)
		}
		s.FailedDisksAtCat = int(fd/float64(len(res.Samples)) + 0.5)
		s.LostStripeFraction = lost / float64(len(res.Samples)) / float64(cfg.Stripes())
	}
	if s.LostStripeFraction <= 0 {
		s.LostStripeFraction = analyticPhi(cfg, s.FailedDisksAtCat)
	}
	return s
}

// analyticPhi is the burst-injection φ at true chunk granularity.
func analyticPhi(cfg poolsim.Config, failed int) float64 {
	if cfg.Clustered {
		return 1
	}
	return mathx.HypergeomTail(cfg.Parity+1, failed, cfg.Disks, cfg.Width)
}

// Result is one durability estimate.
type Result struct {
	Scheme placement.Scheme
	Method repair.Method

	CatRatePerPoolHour mathx.Rate
	WindowHours        float64    // catastrophic-state duration per event
	LossGivenOverlap   mathx.Prob // P(lost network stripe | pn+1 overlap)
	LossRatePerHour    mathx.Rate
	AnnualPDL          mathx.Prob
	Nines              float64
}

// Durability composes stage 1 with the network level for one scheme and
// repair method. detectHours is the failure-detection delay: the paper's
// is failure.DefaultDetectionDelayHours, and the ablations of §4.2.3 F#3
// and §5.2.2 vary it.
func Durability(l *placement.Layout, method repair.Method, s1 Stage1, detectHours float64) (Result, error) {
	if s1.CatRatePerPoolHour < 0 {
		return Result{}, fmt.Errorf("splitting: negative catastrophic rate")
	}
	if detectHours < 0 {
		return Result{}, fmt.Errorf("splitting: negative detection delay")
	}
	an := repair.NewAnalyzer(l)
	netWindow, err := an.CatastrophicWindowHours(method)
	if err != nil {
		return Result{}, err
	}
	window := netWindow + detectHours

	// φ visible to the network repairer: a blind method cannot see
	// inside the pool and must treat everything as lost.
	phi := s1.LostStripeFraction
	if method.Blind() {
		phi = 1
	}
	pn := l.Params.PN
	phis := make([]float64, pn+1)
	for i := range phis {
		phis[i] = phi
	}
	var lossGivenOverlap float64
	var overlapRate float64
	if l.Scheme.Network == placement.Clustered {
		lossGivenOverlap = burst.LossGivenAlignedCatPools(l, phis)
		perPool := mathx.PoissonOverlapRate(l.Params.NetworkWidth(), s1.CatRatePerPoolHour, window, pn+1)
		overlapRate = float64(perPool) * float64(l.TotalNetworkPools())
	} else {
		lossGivenOverlap = burst.LossGivenScatteredCatPools(l, phis)
		overlapRate = float64(mathx.PoissonOverlapRate(l.TotalLocalPools(), s1.CatRatePerPoolHour, window, pn+1))
		// Distinct-rack correction: the pn+1 overlapping pools must sit
		// in different racks for a network stripe to touch them all.
		overlapRate *= distinctRackFactor(l, pn+1)
	}
	lossRate := mathx.Rate(overlapRate * lossGivenOverlap)
	return Result{
		Scheme:             l.Scheme,
		Method:             method,
		CatRatePerPoolHour: s1.CatRatePerPoolHour,
		WindowHours:        window,
		LossGivenOverlap:   mathx.Prob(lossGivenOverlap),
		LossRatePerHour:    lossRate,
		AnnualPDL:          lossRate.AnnualPDL(),
		Nines:              mathx.Nines(lossRate.AnnualPDL()),
	}, nil
}

// distinctRackFactor returns P(m uniformly chosen distinct pools sit in m
// distinct racks).
func distinctRackFactor(l *placement.Layout, m int) float64 {
	total := l.TotalLocalPools()
	ppr := l.LocalPoolsPerRack()
	p := 1.0
	for i := 1; i < m; i++ {
		// After picking i pools in i distinct racks, the next pool must
		// avoid those racks' remaining pools.
		avoid := float64(i * (ppr - 1))
		p *= 1 - avoid/float64(total-i)
	}
	return p
}

// Fig10Row pairs a scheme with its per-method durability results.
type Fig10Row struct {
	Scheme  placement.Scheme
	Results [4]Result // indexed by repair.Method
}

// Fig10 computes durability for all four schemes × four repair methods.
// Stage-1 rates are estimated once per local placement kind (clustered/
// declustered pools behave identically across network schemes).
func Fig10(layouts map[placement.Scheme]*placement.Layout,
	stage1ByLocal map[placement.Kind]Stage1) ([]Fig10Row, error) {
	rows := make([]Fig10Row, 0, len(placement.AllSchemes))
	for _, s := range placement.AllSchemes {
		l, ok := layouts[s]
		if !ok {
			return nil, fmt.Errorf("splitting: missing layout for %v", s)
		}
		s1, ok := stage1ByLocal[s.Local]
		if !ok {
			return nil, fmt.Errorf("splitting: missing stage-1 for local kind %v", s.Local)
		}
		row := Fig10Row{Scheme: s}
		for _, m := range repair.AllMethods {
			r, err := Durability(l, m, s1, failure.DefaultDetectionDelayHours)
			if err != nil {
				return nil, err
			}
			row.Results[int(m)] = r
		}
		rows = append(rows, row)
	}
	return rows, nil
}
