package burst

import (
	"fmt"
	"strings"

	"mlec/internal/topology"
)

// pdlCheckpointKind names burst checkpoints, of one cell or of a grid,
// inside the runctl envelope; LoadCheckpoint rejects files written by
// other estimators.
const pdlCheckpointKind = "burst.pdl"

// pdlCheckpoint holds the per-batch tallies of a campaign, unit by unit:
// the trial count and, for each of the campaign's ne evaluators, the
// mean and sum of squared deviations from the mean (unit u's evaluator e
// at Means[u·ne+e] and M2s[u·ne+e]). Each batch's tallies are pure
// functions of (seed, x, y, batch index), so
// the reduction over them in batch order is independent of which
// process — original or resumed — computed which batch.
type pdlCheckpoint struct {
	Done  []bool    `json:"done"`
	Ns    []int     `json:"ns"`
	Means []float64 `json:"means"`
	M2s   []float64 `json:"m2s"`
}

// samplerID names the layout sampler in every fingerprint: layouts
// drawn by another sampler come from other variates, so a checkpoint
// written under one must not resume under the other.
const samplerID = "coverage-dp"

// pdlFingerprint binds a cell checkpoint to its campaign: the cell, the
// trials and seed, the topology, the evaluator and the sampler.
func pdlFingerprint(ev Evaluator, x, y, trials int, seed int64) string {
	return fmt.Sprintf("x=%d|y=%d|trials=%d|seed=%d|racks=%d|dpr=%d|evaluators=%s|sampler=%s",
		x, y, trials, seed, ev.TotalRacks(), ev.DisksPerRack(), evaluatorID(ev), samplerID)
}

// gridsFingerprint binds a grid checkpoint to its campaign, naming every
// evaluator in order: the file holds their tallies side by side, so
// another set, or the same set in another order, must not resume it.
func gridsFingerprint(evs []Evaluator, xs, ys []int, trials int, seed int64) string {
	ids := make([]string, len(evs))
	for i, ev := range evs {
		ids[i] = evaluatorID(ev)
	}
	return fmt.Sprintf("xs=%v|ys=%v|trials=%d|seed=%d|racks=%d|dpr=%d|evaluators=%s|sampler=%s",
		xs, ys, trials, seed, evs[0].TotalRacks(), evs[0].DisksPerRack(), strings.Join(ids, ";"), samplerID)
}

// evaluatorID names an evaluator in fingerprints. The package's
// evaluators name their kind and every layout parameter their
// conditional PDL reads; an Evaluator from outside the package is an
// interface value only, so it is named "custom" and a caller changing
// its geometry behind the same topology must also change the seed or
// the checkpoint path.
func evaluatorID(ev Evaluator) string {
	if n, ok := ev.(interface{ checkpointID() string }); ok {
		return n.checkpointID()
	}
	return "custom"
}

// geometryID names the topology fields beyond racks and disks per rack
// that the evaluators' stripe counts and pool sizes read.
func geometryID(t topology.Config) string {
	return fmt.Sprintf("encl=%d,cap=%g,chunk=%g", t.DisksPerEnclosure, t.DiskCapacityBytes, t.ChunkSizeBytes)
}

func (e *MLECEvaluator) checkpointID() string {
	return fmt.Sprintf("mlec %v %v %s", e.Layout.Scheme, e.Layout.Params, geometryID(e.Layout.Topo))
}

func (e *SLECEvaluator) checkpointID() string {
	return fmt.Sprintf("slec %v %v %s", e.Layout.Placement, e.Layout.Params, geometryID(e.Layout.Topo))
}

func (e *LRCEvaluator) checkpointID() string {
	return fmt.Sprintf("lrc %v seed=%d %s", e.Layout.Params, e.seed, geometryID(e.Layout.Topo))
}
