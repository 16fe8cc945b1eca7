package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"mlec"
	"mlec/internal/obs"
)

// The engines tier: fixed, pinned-seed engine campaigns — the splitting
// simulator, the full-system simulator, and the burst Monte-Carlo —
// measured end to end in events per wall second (BENCH_engines.json).
// The campaigns are the same shapes the CLIs run (same seeds, same
// topology, same schemes), sized so the whole tier finishes in a few
// seconds, and each campaign's event count is read from the engine's
// own obs counters — the committed number is the engine's real event
// rate, not a proxy.

const engineSchema = "mlec-engine-bench/v1"

type perfResult struct {
	Name         string  `json:"name"`
	Counter      string  `json:"counter"`
	Events       int64   `json:"events"`
	WallSeconds  float64 `json:"wall_seconds"`
	EventsPerSec float64 `json:"events_per_sec"`
}

// campaign is one pinned-seed engine workload. counter names the obs
// counter whose delta across run() is the campaign's event count — the
// same counters the trace and /metrics expose, so the benchmark and
// the observability stack can never disagree about what an "event" is.
type campaign struct {
	name    string
	counter string
	run     func(ctx context.Context) error
}

func campaigns() []campaign {
	topo := mlec.DefaultTopology()
	params := mlec.DefaultParams()
	return []campaign{
		{
			// Stage-1 splitting simulator, D/D (the heaviest scheme:
			// declustered at both levels), event = one trajectory.
			name:    "poolsim.split_dd",
			counter: "poolsim_split_trajectories_total",
			run: func(ctx context.Context) error {
				_, err := mlec.EstimateDurabilityContext(ctx, topo, params, mlec.SchemeDD, mlec.DurabilityOptions{
					AFR: 0.01, UseSimulation: true, Trajectories: 4000, Seed: 12061,
				})
				return err
			},
		},
		{
			// Full-system discrete-event simulator over the paper's
			// 57,600-disk datacenter, event = one simulator event.
			name:    "syssim.dc_25y",
			counter: "syssim_events_total",
			run: func(ctx context.Context) error {
				cfg := mlec.SimulationConfig{
					Topology: topo, Params: params, Scheme: mlec.SchemeCD,
					Method: mlec.RepairMinimum, AFR: 0.01,
				}
				_, err := mlec.SimulateContext(ctx, cfg, 25, 12062)
				return err
			},
		},
		{
			// Burst Monte-Carlo at the paper's hardest surviving cell
			// (3 racks x 40 disks), event = one trial.
			name:    "burst.pdl_3x40",
			counter: "burst_pdl_trials_total",
			run: func(ctx context.Context) error {
				_, err := mlec.BurstPDLContext(ctx, topo, params, mlec.SchemeDD, 3, 40, 20000, 12063, "")
				return err
			},
		},
		{
			// The same estimator at a scattered cell (41 racks x 60
			// disks): layout rejection almost never covers 41 racks
			// with 60 draws, so a trial costs 64 failed attempts — the
			// sampling cost the localized 3x40 cell cannot see.
			name:    "burst.pdl_41x60",
			counter: "burst_pdl_trials_total",
			run: func(ctx context.Context) error {
				_, err := mlec.BurstPDLContext(ctx, topo, params, mlec.SchemeDD, 41, 60, 2000, 12064, "")
				return err
			},
		},
	}
}

// runEngines runs every campaign once and returns its throughput.
func runEngines() []perfResult {
	var results []perfResult
	ctx := context.Background()
	for _, c := range campaigns() {
		before := obs.Default.Counter(c.counter).Value()
		start := time.Now()
		if err := c.run(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "mlecbench: %s: %v\n", c.name, err)
			os.Exit(1)
		}
		wall := time.Since(start).Seconds()
		events := obs.Default.Counter(c.counter).Value() - before
		if events <= 0 {
			fmt.Fprintf(os.Stderr, "mlecbench: %s: counter %s did not advance — the campaign measured nothing\n",
				c.name, c.counter)
			os.Exit(1)
		}
		res := perfResult{
			Name:         c.name,
			Counter:      c.counter,
			Events:       events,
			WallSeconds:  wall,
			EventsPerSec: float64(events) / wall,
		}
		results = append(results, res)
		fmt.Printf("%-24s %12d events  %8.3f s  %12.0f events/s\n",
			c.name, res.Events, res.WallSeconds, res.EventsPerSec)
	}
	return results
}
