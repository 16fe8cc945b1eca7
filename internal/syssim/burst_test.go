package syssim

import (
	"context"
	"fmt"
	"testing"

	"mlec/internal/burst"
	"mlec/internal/failure"
	"mlec/internal/mathx/rngsplit"
	"mlec/internal/placement"
	"mlec/internal/repair"
	"mlec/internal/topology"
)

// The structural burst oracle: the paper's Figure 5 experiment executed
// on a built System, which TestBurstPDLMatchesAnalytic holds
// burst.PDLContext to.

// streamBurstLayout is the oracle's layout stream, a fixed domain
// below the per-pool streams like streamEngine.
const streamBurstLayout = -2

// burstResult reports one correlated-burst injection.
type burstResult struct {
	Lost               bool // some network stripe exceeded pn lost members
	CatastrophicPools  int
	LostLocalStripes   int
	LostNetworkStripes int
}

// runBurst injects y simultaneous disk failures scattered across x racks
// (each affected rack ≥ 1) into a pristine system and reports whether
// data was lost — the paper's Figure 5 experiment executed structurally,
// with a real stripe partition instead of the burst package's analytic
// placement integration. Repair plays no role: the burst is simultaneous.
func runBurst(cfg Config, x, y int, seed int64) (burstResult, error) {
	cfg.Seed = seed
	s, err := New(cfg)
	if err != nil {
		return burstResult{}, err
	}
	rng := rngsplit.Derive(seed, streamBurstLayout)
	layout, err := burst.SampleLayout(rng, cfg.Topo.Racks, cfg.Topo.DisksPerRack(), x, y)
	if err != nil {
		return burstResult{}, err
	}
	ppr := s.layout.LocalPoolsPerRack()
	poolSize := s.poolCfg.Disks
	disksPerRack := cfg.Topo.DisksPerRack()
	if poolSize*ppr != disksPerRack {
		return burstResult{}, fmt.Errorf("syssim: pool geometry mismatch")
	}
	for i, rack := range layout.Racks {
		for _, d := range layout.FailedDisks[i] {
			pool := rack*ppr + d/poolSize
			inPool := d % poolSize
			s.pools[pool].Pool.FailDisk(inPool)
			s.refreshMemberLost(pool)
		}
	}
	res := burstResult{}
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

// burstPDL estimates the probability of data loss for an (x, y) burst by
// repeated structural injection.
func burstPDL(cfg Config, x, y, trials int, seed int64) (float64, error) {
	if trials <= 0 {
		return 0, fmt.Errorf("syssim: trials = %d", trials)
	}
	losses := 0
	for i := 0; i < trials; i++ {
		r, err := runBurst(cfg, x, y, rngsplit.Mix(seed, i))
		if err != nil {
			return 0, err
		}
		if r.Lost {
			losses++
		}
	}
	return float64(losses) / float64(trials), nil
}

// TestBurstPDLMatchesAnalytic cross-validates the structural burst
// injection against the burst package's analytic conditional-expectation
// estimator. The topology is built so the analytic evaluator's
// true-chunk-granularity stripe counts equal the simulator's segment
// counts (DiskCapacity = Segments × ChunkSize), making the two models
// directly comparable.
func TestBurstPDLMatchesAnalytic(t *testing.T) {
	if testing.Short() {
		t.Skip("burst cross-validation in -short mode")
	}
	topo := topology.Default()
	topo.Racks = 6
	topo.EnclosuresPerRack = 1
	topo.DisksPerEnclosure = 12
	const segments = 24
	topo.DiskCapacityBytes = segments * topo.ChunkSizeBytes
	params := placement.Params{KN: 2, PN: 1, KL: 4, PL: 2}

	for _, scheme := range []placement.Scheme{placement.SchemeCD, placement.SchemeDD} {
		cfg := Config{
			Topo: topo, Params: params, Scheme: scheme, Method: repair.RFCO,
			SegmentsPerDisk: segments, TTF: failure.MustExponentialAFR(0.01),
		}
		const x, y, trials = 2, 10, 1500
		structural, err := burstPDL(cfg, x, y, trials, 5)
		if err != nil {
			t.Fatal(err)
		}
		l, err := placement.NewLayout(topo, params, scheme)
		if err != nil {
			t.Fatal(err)
		}
		analytic, err := burst.PDLContext(context.Background(), burst.NewMLECEvaluator(l), x, y, 4000, 5, "")
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%v burst(x=%d,y=%d): structural %.3f vs analytic %.3f",
			scheme, x, y, structural, analytic.PDL)
		diff := structural - analytic.PDL
		if diff < 0 {
			diff = -diff
		}
		if diff > 0.08 {
			t.Errorf("%v: structural %.3f vs analytic %.3f diverge", scheme, structural, analytic.PDL)
		}
	}
}
