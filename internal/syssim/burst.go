package syssim

import (
	"fmt"

	"mlec/internal/burst"
	"mlec/internal/mathx/rngsplit"
)

// BurstResult reports one correlated-burst injection.
type BurstResult struct {
	Lost               bool // some network stripe exceeded pn lost members
	CatastrophicPools  int
	LostLocalStripes   int
	LostNetworkStripes int
}

// RunBurst injects y simultaneous disk failures scattered across x racks
// (each affected rack ≥ 1) into a pristine system and reports whether
// data was lost — the paper's Figure 5 experiment executed structurally,
// with a real stripe partition instead of the burst package's analytic
// placement integration. Repair plays no role: the burst is simultaneous.
func RunBurst(cfg Config, x, y int, seed int64) (BurstResult, error) {
	cfg.Seed = seed
	s, err := New(cfg)
	if err != nil {
		return BurstResult{}, err
	}
	rng := rngsplit.Derive(seed, streamBurstLayout)
	layout, err := burst.SampleLayout(rng, cfg.Topo.Racks, cfg.Topo.DisksPerRack(), x, y)
	if err != nil {
		return BurstResult{}, err
	}
	ppr := s.layout.LocalPoolsPerRack()
	poolSize := s.poolCfg.Disks
	disksPerRack := cfg.Topo.DisksPerRack()
	if poolSize*ppr != disksPerRack {
		return BurstResult{}, fmt.Errorf("syssim: pool geometry mismatch")
	}
	for i, rack := range layout.Racks {
		for _, d := range layout.FailedDisks[i] {
			pool := rack*ppr + d/poolSize
			inPool := d % poolSize
			s.pools[pool].Pool.FailDisk(inPool)
			s.refreshMemberLost(pool)
		}
	}
	res := BurstResult{}
	for p := range s.pools {
		if lost := s.pools[p].Pool.LostStripes(); lost > 0 {
			res.CatastrophicPools++
			res.LostLocalStripes += lost
		}
	}
	for _, dead := range s.netDead {
		if dead {
			res.LostNetworkStripes++
		}
	}
	res.Lost = res.LostNetworkStripes > 0
	return res, nil
}

// BurstPDL estimates the probability of data loss for an (x, y) burst by
// repeated structural injection.
func BurstPDL(cfg Config, x, y, trials int, seed int64) (float64, error) {
	if trials <= 0 {
		return 0, fmt.Errorf("syssim: trials = %d", trials)
	}
	losses := 0
	for i := 0; i < trials; i++ {
		r, err := RunBurst(cfg, x, y, rngsplit.Mix(seed, i))
		if err != nil {
			return 0, err
		}
		if r.Lost {
			losses++
		}
	}
	return float64(losses) / float64(trials), nil
}
