package burst

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"mlec/internal/faultinject"
	"mlec/internal/obs"
	"mlec/internal/placement"
	"mlec/internal/runctl"
	"mlec/internal/topology"
)

// paperEvaluators returns the nine evaluators of Figures 5, 13 and 16
// over the paper datacenter, with their names.
func paperEvaluators(seed int64) ([]Evaluator, []string) {
	topo := topology.Default()
	var evs []Evaluator
	var names []string
	for _, s := range placement.AllSchemes {
		evs = append(evs, NewMLECEvaluator(placement.MustNewLayout(topo, placement.DefaultParams(), s)))
		names = append(names, "mlec "+s.String())
	}
	for _, pl := range placement.AllSLECPlacements {
		evs = append(evs, NewSLECEvaluator(placement.MustNewSLECLayout(topo, placement.SLECParams{K: 7, P: 3}, pl)))
		names = append(names, "slec "+pl.String())
	}
	ll, err := placement.NewLRCLayout(topo, placement.LRCParams{K: 14, L: 2, R: 4})
	if err != nil {
		panic(err)
	}
	return append(evs, NewLRCEvaluator(ll, seed)), append(names, "lrc")
}

// gridFingerprint is the fingerprint of HeatmapContext's one-evaluator
// campaign.
func gridFingerprint(ev Evaluator, xs, ys []int, trials int, seed int64) string {
	return gridsFingerprint([]Evaluator{ev}, xs, ys, trials, seed)
}

// sameBits reports whether two grids hold the same cells, NaNs
// included, to the bit.
func sameBits(a, b *Grid) error {
	if a.Partial != b.Partial {
		return fmt.Errorf("Partial %v, want %v", a.Partial, b.Partial)
	}
	for iy := range a.Cells {
		for ix, x := range a.Cells[iy] {
			y := b.Cells[iy][ix]
			if math.Float64bits(x.PDL) != math.Float64bits(y.PDL) || math.Float64bits(x.Lo) != math.Float64bits(y.Lo) ||
				math.Float64bits(x.Hi) != math.Float64bits(y.Hi) || x.Trials != y.Trials || x.Partial != y.Partial ||
				x.Racks != y.Racks || x.Failures != y.Failures {
				return fmt.Errorf("cell (%d, %d) is %+v, want %+v", x.Racks, x.Failures, x, y)
			}
		}
	}
	return nil
}

// TestHeatmapsMatchHeatmap runs the nine paper evaluators as one
// campaign and each alone: every grid must agree to the bit, and the
// shared campaign draws each layout once for nine evaluations.
func TestHeatmapsMatchHeatmap(t *testing.T) {
	const seed, trials = 20230911, 96
	xs, ys := []int{3, 11, 41}, []int{44, 120, 300}
	evs, names := paperEvaluators(seed)
	layouts, evals := obs.Default.Counter("burst_layouts_total"), obs.Default.Counter("burst_pdl_trials_total")
	l0, e0 := layouts.Value(), evals.Value()
	gs, err := HeatmapsContext(context.Background(), evs, xs, ys, trials, seed, "")
	if err != nil {
		t.Fatal(err)
	}
	const cells = 9 // every (x, y) of the grid fits
	if got, want := layouts.Value()-l0, int64(cells*trials); got != want {
		t.Errorf("the shared campaign drew %d layouts, want %d", got, want)
	}
	if got, want := evals.Value()-e0, int64(cells*trials*len(evs)); got != want {
		t.Errorf("the shared campaign made %d evaluations, want %d", got, want)
	}
	for i, ev := range evs {
		alone, err := HeatmapContext(context.Background(), ev, xs, ys, trials, seed, "")
		if err != nil {
			t.Fatal(err)
		}
		if err := sameBits(gs[i], alone); err != nil {
			t.Errorf("%s: shared campaign differs from its own: %v", names[i], err)
		}
	}
}

// TestHeatmapsRejectMixedTopologies: evaluators over different
// topologies cannot score the same layouts.
func TestHeatmapsRejectMixedTopologies(t *testing.T) {
	evs := []Evaluator{&layoutEvaluator{racks: 20, dpr: 30}, &layoutEvaluator{racks: 20, dpr: 40}}
	if _, err := HeatmapsContext(context.Background(), evs, []int{2}, []int{20}, 64, 1, ""); err == nil {
		t.Fatal("evaluators over 20×30 and 20×40 topologies shared one campaign")
	}
	if _, err := HeatmapsContext(context.Background(), nil, []int{2}, []int{20}, 64, 1, ""); err == nil {
		t.Fatal("a campaign without evaluators ran")
	}
}

// TestPDLCheckpointRejectsOtherEvaluator: a cell checkpointed under one
// evaluator must not resume under another over the same topology. The
// fingerprint once named only the topology, and a D/D cell resumed from
// a finished C/D file printed C/D's PDL of 0.
func TestPDLCheckpointRejectsOtherEvaluator(t *testing.T) {
	topo, params := topology.Default(), placement.DefaultParams()
	cd := NewMLECEvaluator(placement.MustNewLayout(topo, params, placement.SchemeCD))
	dd := NewMLECEvaluator(placement.MustNewLayout(topo, params, placement.SchemeDD))
	path := filepath.Join(t.TempDir(), "pdl.ckpt")
	if _, err := PDLContext(context.Background(), cd, 3, 40, 640, 5, path); err != nil {
		t.Fatal(err)
	}
	if _, err := PDLContext(context.Background(), dd, 3, 40, 640, 5, path); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("D/D cell from a C/D checkpoint: error %v, want a fingerprint mismatch", err)
	}
}

// TestHeatmapsResumeAfterRoundFault: a shared campaign faulted after its
// first save resumes to the grids of an uninterrupted one, and its file
// is refused by the same evaluators in another order.
func TestHeatmapsResumeAfterRoundFault(t *testing.T) {
	evs, names := paperEvaluators(3)
	evs = evs[:4]
	xs, ys := []int{3, 11}, []int{44, 120}
	const seed, trials = 9, 80 * pdlBatchTrials // 4 cells × 80 batches: two rounds
	path := filepath.Join(t.TempDir(), "fig.ckpt")
	ref, err := HeatmapsContext(context.Background(), evs, xs, ys, trials, seed, "")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := faultinject.Parse(fmt.Sprintf("burst.batch:panic:nth=%d", pdlRoundSize+1))
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(plan)
	_, err = HeatmapsContext(context.Background(), evs, xs, ys, trials, seed, path)
	faultinject.Disable()
	var pe *runctl.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("faulted campaign returned %v, want a *runctl.PanicError", err)
	}
	swapped := []Evaluator{evs[1], evs[0], evs[2], evs[3]}
	if _, err := HeatmapsContext(context.Background(), swapped, xs, ys, trials, seed, path); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("evaluators in another order: error %v, want a fingerprint mismatch", err)
	}
	resumed, err := HeatmapsContext(context.Background(), evs, xs, ys, trials, seed, path)
	if err != nil {
		t.Fatal(err)
	}
	for i := range evs {
		if err := sameBits(resumed[i], ref[i]); err != nil {
			t.Errorf("%s: resumed grid differs from the uninterrupted one: %v", names[i], err)
		}
	}
}
