package mlec

import (
	"context"
	"fmt"
	"time"

	"mlec/internal/burst"
	"mlec/internal/bwmodel"
	"mlec/internal/failure"
	"mlec/internal/placement"
	"mlec/internal/poolsim"
	"mlec/internal/repair"
	"mlec/internal/splitting"
	"mlec/internal/throughput"
)

// BurstPDL estimates the probability of data loss when y disks fail
// simultaneously scattered across x racks (the paper's Figure 5 cells),
// by conditional-expectation Monte Carlo over `trials` burst layouts.
func BurstPDL(topo Topology, params Params, scheme Scheme, x, y, trials int, seed int64) (pdl, lo, hi float64, err error) {
	r, err := BurstPDLContext(context.Background(), topo, params, scheme, x, y, trials, seed, "")
	if err != nil {
		return 0, 0, 0, err
	}
	return r.PDL, r.Lo, r.Hi, nil
}

// BurstResult is a burst-PDL estimate with its provenance: how many
// trials actually contributed and whether the campaign was interrupted.
type BurstResult struct {
	PDL, Lo, Hi float64
	// Trials counts the Monte-Carlo trials reflected in the estimate;
	// less than requested when the campaign was cancelled.
	Trials int
	// Partial marks an estimate from an interrupted campaign. The
	// confidence interval is honestly widened (fewer trials); resume by
	// re-running with the same checkpointPath.
	Partial bool
}

// BurstPDLContext is BurstPDL under run control: ctx cancellation or
// deadline stops the campaign at the next batch boundary and returns the
// partial estimate; a non-empty checkpointPath checkpoints completed
// batches so an identical later call resumes deterministically —
// byte-identical to an uninterrupted run with the same seed.
func BurstPDLContext(ctx context.Context, topo Topology, params Params, scheme Scheme, x, y, trials int, seed int64, checkpointPath string) (BurstResult, error) {
	l, err := placement.NewLayout(topo, params, scheme)
	if err != nil {
		return BurstResult{}, err
	}
	r, err := burst.PDLContext(ctx, burst.NewMLECEvaluator(l), x, y, trials, seed, checkpointPath)
	if err != nil {
		return BurstResult{}, err
	}
	return BurstResult{PDL: r.PDL, Lo: r.Lo, Hi: r.Hi, Trials: r.Trials, Partial: r.Partial}, nil
}

// RepairCost summarizes one repair method's cost for a catastrophic
// local pool failure (pl+1 simultaneous disk failures).
type RepairCost struct {
	Method                RepairMethod
	CrossRackTrafficBytes float64
	NetworkRepairHours    float64
	LocalRepairHours      float64
	TotalHours            float64
}

// AnalyzeRepair evaluates all four repair methods for the given scheme
// (Figures 8 and 9).
func AnalyzeRepair(topo Topology, params Params, scheme Scheme) ([]RepairCost, error) {
	l, err := placement.NewLayout(topo, params, scheme)
	if err != nil {
		return nil, err
	}
	an := repair.NewAnalyzer(l)
	out := make([]RepairCost, 0, len(repair.AllMethods))
	for _, m := range repair.AllMethods {
		a, err := an.AnalyzeBurst(m)
		if err != nil {
			return nil, err
		}
		out = append(out, RepairCost{
			Method:                m,
			CrossRackTrafficBytes: a.CrossRackTrafficBytes,
			NetworkRepairHours:    a.NetworkRepairHours,
			LocalRepairHours:      a.LocalRepairHours,
			TotalHours:            a.TotalHours,
		})
	}
	return out, nil
}

// RepairBandwidth reports the paper's Table 2 row for one scheme.
type RepairBandwidth struct {
	DiskRepairBytes, DiskRepairBW, DiskRepairHours float64
	PoolRepairBytes, PoolRepairBW, PoolRepairHours float64
}

// AnalyzeBandwidth evaluates available repair bandwidth and repair time
// (Table 2 / Figure 6).
func AnalyzeBandwidth(topo Topology, params Params, scheme Scheme) (RepairBandwidth, error) {
	l, err := placement.NewLayout(topo, params, scheme)
	if err != nil {
		return RepairBandwidth{}, err
	}
	m := bwmodel.New(l)
	return RepairBandwidth{
		DiskRepairBytes: m.SingleDiskRepairBytes(),
		DiskRepairBW:    m.SingleDiskRepairBandwidth(),
		DiskRepairHours: m.SingleDiskRepairHours(),
		PoolRepairBytes: m.PoolRepairBytes(),
		PoolRepairBW:    m.PoolRepairBandwidth(),
		PoolRepairHours: m.PoolRepairHours(),
	}, nil
}

// DurabilityOptions tunes the durability estimate.
type DurabilityOptions struct {
	// AFR is the annual disk failure rate (default 0.01).
	AFR float64
	// UseSimulation selects the event-driven splitting estimator for
	// stage 1 (slower, captures priority-repair and stripe-coverage
	// effects); otherwise the Markov R_ALL view is used.
	UseSimulation bool
	// Trajectories per splitting level (0 means the default 20000;
	// negative is an error).
	Trajectories int
	Seed         int64
	// CheckpointPath, when non-empty and UseSimulation is set, makes
	// the splitting estimator checkpoint after each completed level and
	// resume a previously interrupted campaign deterministically.
	CheckpointPath string
}

// DurabilityEstimate is the stage-2 composition result.
type DurabilityEstimate struct {
	Method             RepairMethod
	CatRatePerPoolHour float64
	WindowHours        float64
	AnnualPDL          float64
	Nines              float64
	// AnnualPDLLo/Hi bound AnnualPDL by propagating the stage-1
	// catastrophe-rate confidence interval (95% CI plus the exact
	// residual-weight tail bound) through the stage-2 composition. Both
	// are zero when stage 1 was analytic (no sampling error).
	AnnualPDLLo float64
	AnnualPDLHi float64
	// Partial marks an estimate whose stage-1 splitting campaign was
	// interrupted: AnnualPDL reflects only the levels completed, and
	// AnnualPDLHi includes the unexplored remainder.
	Partial bool
}

// EstimateDurability computes the annual probability of data loss and
// durability nines for one scheme under each repair method (Figure 10).
// EstimateDurability is EstimateDurabilityContext without cancellation.
func EstimateDurability(topo Topology, params Params, scheme Scheme, opts DurabilityOptions) ([]DurabilityEstimate, error) {
	return EstimateDurabilityContext(context.Background(), topo, params, scheme, opts)
}

// EstimateDurabilityContext is EstimateDurability under run control:
// when UseSimulation is set, ctx cancellation or deadline stops the
// stage-1 splitting estimator at the next level boundary and the
// estimates come back Partial with honestly widened bounds; with
// opts.CheckpointPath set, an identical later call resumes the campaign
// deterministically.
func EstimateDurabilityContext(ctx context.Context, topo Topology, params Params, scheme Scheme, opts DurabilityOptions) ([]DurabilityEstimate, error) {
	afr, err := failure.ResolveAFR(opts.AFR)
	if err != nil {
		return nil, err
	}
	if opts.Trajectories < 0 {
		return nil, fmt.Errorf("mlec: Trajectories = %d, must not be negative", opts.Trajectories)
	}
	l, err := placement.NewLayout(topo, params, scheme)
	if err != nil {
		return nil, err
	}
	var s1 splitting.Stage1
	if opts.UseSimulation {
		s1, err = splitting.SplitStage1(ctx, l, 120, afr, poolsim.SplitConfig{
			TrajectoriesPerLevel: opts.Trajectories, Seed: opts.Seed, CheckpointPath: opts.CheckpointPath,
		})
	} else {
		s1, err = splitting.MarkovStage1(l, afr)
	}
	if err != nil {
		return nil, err
	}

	out := make([]DurabilityEstimate, 0, len(repair.AllMethods))
	for _, m := range repair.AllMethods {
		r, err := splitting.Durability(l, m, s1)
		if err != nil {
			return nil, err
		}
		est := DurabilityEstimate{
			Method:             m,
			CatRatePerPoolHour: r.CatRatePerPoolHour,
			WindowHours:        r.WindowHours,
			AnnualPDL:          r.AnnualPDL,
			Nines:              r.Nines,
			Partial:            s1.Partial,
		}
		// AnnualPDL is monotone in the stage-1 catastrophe rate, so the
		// rate interval maps directly onto a PDL interval by re-running
		// the (cheap, deterministic) stage-2 composition at each bound.
		if s1.CatRateLo > 0 || s1.CatRateHi > 0 {
			if est.AnnualPDLLo, err = annualPDLAt(l, m, s1, s1.CatRateLo); err != nil {
				return nil, err
			}
			if est.AnnualPDLHi, err = annualPDLAt(l, m, s1, s1.CatRateHi); err != nil {
				return nil, err
			}
		}
		out = append(out, est)
	}
	return out, nil
}

// annualPDLAt composes stage 1 at another catastrophic rate.
func annualPDLAt(l *placement.Layout, m RepairMethod, s1 splitting.Stage1, rate float64) (float64, error) {
	s1.CatRatePerPoolHour = rate
	r, err := splitting.Durability(l, m, s1)
	return r.AnnualPDL, err
}

// EncodingThroughput measures the end-to-end MLEC encoding throughput in
// bytes of user data per second on one goroutine (Figure 11/12 axis).
func EncodingThroughput(params Params, budget time.Duration) (float64, error) {
	if budget <= 0 {
		budget = 25 * time.Millisecond
	}
	return throughput.MeasureMLEC(params, throughput.DefaultShardBytes, budget)
}
