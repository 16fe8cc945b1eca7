package burst

import "fmt"

// Checkpoint kinds inside the runctl envelope; LoadCheckpoint rejects
// files written by other estimators.
const (
	pdlCheckpointKind  = "burst.pdl"
	gridCheckpointKind = "burst.grid"
)

// pdlCheckpoint holds the per-batch tallies of one (x, y) cell: trial
// count, mean and sum of squared deviations from the mean. Each batch's
// tallies are pure functions of (seed, x, y, batch index), so the
// reduction over them in batch order is independent of which process —
// original or resumed — computed which batch.
type pdlCheckpoint struct {
	Done  []bool    `json:"done"`
	Ns    []int     `json:"ns"`
	Means []float64 `json:"means"`
	M2s   []float64 `json:"m2s"`
}

// gridCheckpoint holds fully evaluated heatmap cells; partially
// evaluated cells are never stored.
type gridCheckpoint struct {
	Done  [][]bool   `json:"done"`
	Cells [][]Result `json:"cells"`
}

// samplerID names the layout sampler in every fingerprint: layouts
// drawn by another sampler come from other variates, so a checkpoint
// written under one must not resume under the other.
const samplerID = "coverage-dp"

// pdlFingerprint binds a cell checkpoint to its campaign. The Evaluator
// is an interface, so only its topology dimensions enter the
// fingerprint — callers changing the erasure-code geometry behind the
// same (racks, disks-per-rack) topology must also change the seed or
// the checkpoint path.
func pdlFingerprint(ev Evaluator, x, y, trials int, seed int64) string {
	return fmt.Sprintf("x=%d|y=%d|trials=%d|seed=%d|racks=%d|dpr=%d|sampler=%s",
		x, y, trials, seed, ev.TotalRacks(), ev.DisksPerRack(), samplerID)
}

func gridFingerprint(ev Evaluator, xs, ys []int, trials int, seed int64) string {
	return fmt.Sprintf("xs=%v|ys=%v|trials=%d|seed=%d|racks=%d|dpr=%d|sampler=%s",
		xs, ys, trials, seed, ev.TotalRacks(), ev.DisksPerRack(), samplerID)
}
