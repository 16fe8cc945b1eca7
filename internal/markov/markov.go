// Package markov implements the paper's fourth evaluation strategy (§3):
// birth–death Markov-chain durability models, used to cross-verify the
// simulation and splitting estimators for the simplest repair method
// (R_ALL), exactly as the paper does.
//
// The SLEC model is the classic (n, p) chain: state f counts concurrently
// failed devices, failures arrive at (n−f)·λ, repair completes at μ(f),
// and state p+1 absorbs (data loss). The MLEC model iterates it: the
// local chain's absorption rate becomes the "disk" failure rate of a
// network-level chain whose devices are local pools (the paper: "treating
// a local pool like a disk").
package markov

import (
	"fmt"

	"mlec/internal/bwmodel"
	"mlec/internal/mathx"
	"mlec/internal/placement"
)

// Chain is a birth–death absorption model over states 0..p+1.
type Chain struct {
	// N is the device count; P the parity tolerance (absorb at P+1).
	N, P int
	// LambdaPerHour is the per-device failure rate.
	LambdaPerHour mathx.Rate
	// RepairRate returns the state-f repair completion rate μ_f (moving
	// f → f−1), f in [1, P].
	RepairRate func(f int) mathx.Rate
}

// MTTDLHours returns the expected hours from the pristine state to
// absorption (first data-loss event). With D_f = T_f − T_{f+1}, the
// expected time to first reach state f+1 from f, the first-passage
// equations (β_f+μ_f)·T_f − β_f·T_{f+1} − μ_f·T_{f−1} = 1 become the
// forward recurrence D_0 = 1/β_0, D_f = (1 + μ_f·D_{f−1})/β_f, and
// MTTDL = T_0 = D_0 + … + D_P. Every term is positive, so nothing
// cancels however far μ exceeds β (the durability regime).
func (c Chain) MTTDLHours() (float64, error) {
	if c.N <= 0 || c.P < 0 || c.P >= c.N {
		return 0, fmt.Errorf("markov: bad chain N=%d P=%d", c.N, c.P)
	}
	if c.LambdaPerHour <= 0 {
		return 0, fmt.Errorf("markov: lambda = %g", c.LambdaPerHour)
	}
	lambda := float64(c.LambdaPerHour)
	d := make([]float64, c.P+1)
	d[0] = 1 / (float64(c.N) * lambda)
	for f := 1; f <= c.P; f++ {
		mu := float64(c.RepairRate(f))
		if mu < 0 {
			return 0, fmt.Errorf("markov: negative repair rate at state %d", f)
		}
		d[f] = (1 + mu*d[f-1]) / (float64(c.N-f) * lambda)
	}
	// Sum from the top: T_f = D_f + T_{f+1}, with T_{P+1} = 0.
	t := 0.0
	for f := c.P; f >= 0; f-- {
		t += d[f]
	}
	return t, nil
}

// LossRatePerHour returns the long-run data-loss event rate ≈ 1/MTTDL.
func (c Chain) LossRatePerHour() (mathx.Rate, error) {
	mttdl, err := c.MTTDLHours()
	if err != nil {
		return 0, err
	}
	return mathx.Rate(1 / mttdl), nil
}

// SLECPool builds the chain for one SLEC pool: n devices, p parities,
// per-disk failure rate λ, disk capacity and a state-dependent repair
// bandwidth (bytes/s). μ_f = bw(f)/(remaining bytes of one disk) — the
// standard "repair one device at a time" convention.
func SLECPool(n, p int, lambdaPerHour mathx.Rate, diskBytes float64, bw func(f int) float64) Chain {
	return Chain{
		N: n, P: p, LambdaPerHour: lambdaPerHour,
		RepairRate: func(f int) mathx.Rate {
			return mathx.Rate(bw(f) / diskBytes * 3600)
		},
	}
}

// MLECRAll models an MLEC system under R_ALL: a local chain per pool
// (absorption = catastrophic pool), iterated into a network chain whose
// devices are the kn+pn local pools of one network pool. Returns the
// system-wide annual PDL (network-pool PDL scaled by pool count) for
// network-clustered schemes; for network-declustered schemes the network
// chain spans all pools with tolerance pn (any pn+1 concurrent
// catastrophic pools lose data under R_ALL's pool-is-lost view).
type MLECRAllModel struct {
	Layout        *placement.Layout
	LambdaPerHour mathx.Rate // per-disk failure rate
}

// LocalPoolChain returns the chain of one local pool.
func (m MLECRAllModel) LocalPoolChain() Chain {
	l := m.Layout
	cfgBW := func(f int) float64 {
		return bwmodel.New(l).DegradedPoolRepairBandwidth(f)
	}
	// Repair one disk's bytes per completion; the degraded bandwidth
	// already accounts for parallel spares / declustered spread.
	return SLECPool(l.LocalPoolSize(), l.Params.PL, m.LambdaPerHour,
		l.Topo.DiskCapacityBytes, cfgBW)
}

// CatRatePerPoolHour returns the local chain's absorption rate — the
// R_ALL-visible catastrophic-pool rate (no priority-repair or stripe-
// coverage discounts; those are what the simulator adds on top).
func (m MLECRAllModel) CatRatePerPoolHour() (mathx.Rate, error) {
	return m.LocalPoolChain().LossRatePerHour()
}

// SystemAnnualPDL returns the system-wide annual probability of data
// loss under R_ALL.
func (m MLECRAllModel) SystemAnnualPDL() (mathx.Prob, error) {
	l := m.Layout
	catRate, err := m.CatRatePerPoolHour()
	if err != nil {
		return 0, err
	}
	repairHours := bwmodel.New(l).PoolRepairHours()
	poolRepairRate := mathx.Rate(1 / repairHours)

	if l.Scheme.Network == placement.Clustered {
		net := Chain{
			N: l.Params.NetworkWidth(), P: l.Params.PN, LambdaPerHour: catRate,
			RepairRate: func(f int) mathx.Rate { return poolRepairRate },
		}
		rate, err := net.LossRatePerHour()
		if err != nil {
			return 0, err
		}
		return mathx.Rate(float64(rate) * float64(l.TotalNetworkPools())).AnnualPDL(), nil
	}
	// Network-declustered: any pn+1 concurrent catastrophic pools
	// (in distinct racks; the distinct-rack correction is ≈1 at scale)
	// lose data under R_ALL. Use the Poisson overlap rate across all
	// pools with window = pool repair time.
	rate := mathx.PoissonOverlapRate(l.TotalLocalPools(), catRate, repairHours, l.Params.PN+1)
	return rate.AnnualPDL(), nil
}
