// Package ecdur estimates the long-term (independent-failure) durability
// of the non-MLEC code families the paper compares against in Section 5:
// the four SLEC placements and the declustered LRC. MLEC durability comes
// from the splitting package; this package supplies the SLEC/LRC sides of
// Figures 12 and 15.
//
// Two models are used, matching the structure of the placements:
//
//   - Clustered local pools (Loc-Cp): the classic birth–death Markov
//     chain per pool (internal/markov) — every stripe spans every pool
//     disk, so disk-level state is exact.
//
//   - Declustered placements (Loc-Dp, Net-Cp within its rack group,
//     Net-Dp, LRC-Dp): a level cascade that mirrors the priority
//     repairer. At level j (a stripe with j dead chunks exists), the
//     exposure window W_j is the time to rebuild the level-j cohort
//     (tiny for j ≥ 2 — priority repair — so the 30-minute detection
//     delay floors it, the effect behind §5.2.2 F#2), and the next
//     failure escalates only if it hits one of the n_j cohort stripes:
//
//     rate ≈ D·λ · Π_{j=1}^{p} [ (D−j)·λ·W_j · h_j ] · fatal
//
//     with n_j from the hypergeometric stripe-intersection law at true
//     chunk granularity, h_j = 1−(1−(w−j)/(D−j))^{n_j}, and `fatal` the
//     fraction of patterns the code cannot decode (1 for MDS SLEC,
//     the MR-criterion fraction for LRC).
package ecdur

import (
	"fmt"

	"mlec/internal/markov"
	"mlec/internal/mathx"
	"mlec/internal/placement"
	"mlec/internal/topology"
)

// Result is one durability estimate.
type Result struct {
	Label     string
	AnnualPDL mathx.Prob
	Nines     float64
}

// cascadeInput describes one declustered "pool" for the level cascade.
type cascadeInput struct {
	Disks      int     // D: disks the pool's stripes draw from
	Width      int     // w: chunks per stripe
	Tolerance  int     // p: max dead chunks a stripe survives
	Stripes    float64 // stripes in the pool (true chunk granularity)
	ChunkBytes float64
	// RepairBW returns the pool repair bandwidth (bytes/s of rebuilt
	// data) with f disks under repair.
	RepairBW func(f int) float64
	// FirstWindowHours is the level-1 exposure (one disk's rebuild).
	FirstWindowHours float64
	// FatalFraction is P(pattern undecodable | a stripe reached
	// Tolerance+1 dead chunks); 1 for MDS codes.
	FatalFraction float64
	Lambda        mathx.Rate // per-disk failure rate
	// DetectionHours floors every exposure window (default 0.5).
	DetectionHours float64
}

// cascadeRate returns the pool's data-loss rate per hour.
func cascadeRate(in cascadeInput) float64 {
	D, w, p := in.Disks, in.Width, in.Tolerance
	lambda := float64(in.Lambda)
	rate := float64(D) * lambda
	for j := 1; j <= p; j++ {
		// Exposure window of the level-j cohort.
		var wj float64
		if j == 1 {
			wj = in.FirstWindowHours
		} else {
			nj := in.Stripes * mathx.HypergeomPMF(j, j, D, w)
			volume := nj * float64(j) * in.ChunkBytes
			wj = volume / in.RepairBW(j) / 3600
		}
		wj += in.DetectionHours
		// Next failure during the window…
		pArrive := float64(D-j) * lambda * wj
		if pArrive > 1 {
			pArrive = 1
		}
		// …hitting one of the cohort stripes.
		nj := in.Stripes * mathx.HypergeomPMF(j, j, D, w)
		hit := mathx.OneMinusPow(float64(w-j)/float64(D-j), nj)
		rate *= pArrive * hit
	}
	return rate * in.FatalFraction
}

// SLEC estimates the annual system PDL of a (k+p) SLEC under the given
// placement with independent failures at the per-hour rate lambda and
// the failure-detection delay detectHours (the paper's is
// failure.DefaultDetectionDelayHours; §5.2.2 discusses 1-minute
// detection).
func SLEC(topo topology.Config, params placement.SLECParams, pl placement.SLECPlacement, lambda mathx.Rate, detectHours float64) (Result, error) {
	l, err := placement.NewSLECLayout(topo, params, pl)
	if err != nil {
		return Result{}, err
	}
	k, p := params.K, params.P
	d := topo.DiskRepairBandwidth()
	label := fmt.Sprintf("%v %v", pl, params)

	var ratePerHour float64
	switch pl {
	case placement.LocalCp:
		chain := markov.SLECPool(params.Width(), p, lambda, topo.DiskCapacityBytes,
			func(f int) float64 { return float64(f) * d })
		r, err := chain.LossRatePerHour()
		if err != nil {
			return Result{}, err
		}
		ratePerHour = float64(r) * float64(l.TotalPools())

	case placement.LocalDp:
		D := topo.DisksPerEnclosure
		bw := func(f int) float64 {
			surv := D - f
			if surv < k {
				surv = k
			}
			return float64(surv) * d / float64(k+1)
		}
		in := cascadeInput{
			Disks: D, Width: params.Width(), Tolerance: p,
			Stripes: l.StripesPerPool(), ChunkBytes: topo.ChunkSizeBytes,
			RepairBW:         bw,
			FirstWindowHours: topo.DiskCapacityBytes / bw(1) / 3600,
			FatalFraction:    1, Lambda: lambda, DetectionHours: detectHours,
		}
		ratePerHour = cascadeRate(in) * float64(l.TotalPools())

	case placement.NetworkCp:
		// Declustered within each rack group; repairs write to spares
		// across the group's racks: group cross-rack budget over k+1
		// crossings, capped by participating disks.
		groupRacks := params.Width()
		bwv := float64(groupRacks) * topo.RackRepairBandwidth() / float64(k+1)
		if max := float64(l.PoolSize()-1) * d / float64(k+1); bwv > max {
			bwv = max
		}
		in := cascadeInput{
			Disks: l.PoolSize(), Width: params.Width(), Tolerance: p,
			Stripes: l.StripesPerPool(), ChunkBytes: topo.ChunkSizeBytes,
			RepairBW:         func(int) float64 { return bwv },
			FirstWindowHours: topo.DiskCapacityBytes / bwv / 3600,
			FatalFraction:    1, Lambda: lambda, DetectionHours: detectHours,
		}
		ratePerHour = cascadeRate(in) * float64(l.TotalPools())

	default: // NetworkDp
		bwv := float64(topo.Racks) * topo.RackRepairBandwidth() / float64(k+1)
		if max := float64(topo.TotalDisks()-1) * d / float64(k+1); bwv > max {
			bwv = max
		}
		in := cascadeInput{
			Disks: topo.TotalDisks(), Width: params.Width(), Tolerance: p,
			Stripes: l.TotalStripes(), ChunkBytes: topo.ChunkSizeBytes,
			RepairBW:         func(int) float64 { return bwv },
			FirstWindowHours: topo.DiskCapacityBytes / bwv / 3600,
			FatalFraction:    1, Lambda: lambda, DetectionHours: detectHours,
		}
		ratePerHour = cascadeRate(in)
	}

	pdl := mathx.Rate(ratePerHour).AnnualPDL()
	return Result{Label: label, AnnualPDL: pdl, Nines: mathx.Nines(pdl)}, nil
}

// LRC estimates the annual system PDL of a (k,l,r) LRC-Dp layout. The
// cascade's stripe tolerance is r+1 dead chunks (any r+1 failures decode
// under the MR criterion); the final arrival is fatal for the
// MR-rejected fraction of (r+2)-patterns. detectHours is the
// failure-detection delay, as for SLEC.
func LRC(topo topology.Config, params placement.LRCParams, lambda mathx.Rate, detectHours float64) (Result, error) {
	l, err := placement.NewLRCLayout(topo, params)
	if err != nil {
		return Result{}, err
	}
	groupReads := params.K / params.L
	d := topo.DiskRepairBandwidth()
	bwv := float64(topo.Racks) * topo.RackRepairBandwidth() / float64(groupReads+1)
	if max := float64(topo.TotalDisks()-1) * d / float64(groupReads+1); bwv > max {
		bwv = max
	}
	in := cascadeInput{
		Disks: topo.TotalDisks(), Width: params.Width(), Tolerance: params.R + 1,
		Stripes: l.TotalStripes(), ChunkBytes: topo.ChunkSizeBytes,
		RepairBW:         func(int) float64 { return bwv },
		FirstWindowHours: topo.DiskCapacityBytes / bwv / 3600,
		FatalFraction:    fatalPatternFraction(params, params.R+2),
		Lambda:           lambda,
		DetectionHours:   detectHours,
	}
	pdl := mathx.Rate(cascadeRate(in)).AnnualPDL()
	return Result{
		Label:     fmt.Sprintf("LRC-Dp %v", params),
		AnnualPDL: pdl,
		Nines:     mathx.Nines(pdl),
	}, nil
}

// fatalPatternFraction returns the fraction of m-subsets of stripe slots
// whose loss is unrecoverable under the MR criterion, counted exactly by
// dynamic programming over groups: a pattern with g_i losses in group i
// (data + local parity, k/l+1 slots) and gf lost globals is fatal iff
// Σ max(0, g_i−1) + gf > r. Enumerating subsets directly would cost
// C(width, m) — prohibitive for wide codes.
func fatalPatternFraction(p placement.LRCParams, m int) float64 {
	groupSlots := p.K/p.L + 1
	capEx := p.R + 1 // absorb any excess beyond the fatal threshold
	// dp[used][excess] = weighted ways over groups processed so far.
	dp := make([][]float64, m+1)
	for i := range dp {
		dp[i] = make([]float64, capEx+1)
	}
	dp[0][0] = 1
	for g := 0; g < p.L; g++ {
		next := make([][]float64, m+1)
		for i := range next {
			next[i] = make([]float64, capEx+1)
		}
		for used := 0; used <= m; used++ {
			for ex := 0; ex <= capEx; ex++ {
				v := dp[used][ex]
				if v == 0 {
					continue
				}
				maxTake := groupSlots
				if used+maxTake > m {
					maxTake = m - used
				}
				for take := 0; take <= maxTake; take++ {
					exc := 0
					if take > 1 {
						exc = take - 1
					}
					ne := ex + exc
					if ne > capEx {
						ne = capEx
					}
					next[used+take][ne] += v * mathx.Choose(groupSlots, take)
				}
			}
		}
		dp = next
	}
	// Append global-parity losses and count fatal combinations.
	fatal := 0.0
	for used := 0; used <= m; used++ {
		gf := m - used
		if gf > p.R {
			continue // cannot lose more globals than exist
		}
		ways := mathx.Choose(p.R, gf)
		for ex := 0; ex <= capEx; ex++ {
			if ex+gf > p.R {
				fatal += dp[used][ex] * ways
			}
		}
	}
	total := mathx.Choose(p.Width(), m)
	if total == 0 {
		return 0
	}
	return fatal / total
}
