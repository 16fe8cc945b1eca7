package experiments

import (
	"context"
	"io"
	"testing"

	"mlec/internal/obs"
)

// TestFullRunComputesStage1Once runs paper-scale Figures 7 and 10 as one
// run: their shared stage 1, 20,000 trajectories a level for each of the
// two local placement kinds, is simulated once, 240,000 trajectories in
// all where two runs of it would count 480,000.
func TestFullRunComputesStage1Once(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale splitting campaign")
	}
	const want = 240000
	trajectories := obs.Default.Counter("poolsim_split_trajectories_total")
	before := trajectories.Value()
	r := NewRun(Options{Seed: 1, AFR: 0.01})
	for _, id := range []string{"fig7", "fig10"} {
		if err := r.RunContext(context.Background(), id, io.Discard); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	if got := trajectories.Value() - before; got != want {
		t.Errorf("fig7 + fig10 simulated %d stage-1 trajectories, want %d", got, want)
	}
}

// TestRunKeepsNoInterruptedStage1: a stage 1 cut short by cancellation
// fails its figure and is not kept, so the run's next reader computes
// it again rather than reading a partial estimate.
func TestRunKeepsNoInterruptedStage1(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := NewRun(Options{Seed: 1, AFR: 0.01})
	if err := r.RunContext(ctx, "fig7", io.Discard); err == nil {
		t.Fatal("fig7 with a cancelled stage 1 succeeded")
	}
	if r.stage1 != nil {
		t.Error("the run kept an interrupted stage 1")
	}
}

// TestRunSharesCodecRates runs Figures 12 and 15 as one run: every MLEC
// code the two share is measured once, so each of Figure 15's C/D
// points prints the rate of Figure 12's point for the same code.
func TestRunSharesCodecRates(t *testing.T) {
	r := NewRun(quickOpts())
	f12, err := fig12(r)
	if err != nil {
		t.Fatal(err)
	}
	f15, err := fig15(r)
	if err != nil {
		t.Fatal(err)
	}
	rate := map[string]float64{}
	for _, p := range f12.PanelB {
		rate[p.Label] = p.BytesPerSec
	}
	shared := 0
	for _, p := range f15.Points {
		if want, ok := rate[p.Label]; ok {
			shared++
			if p.BytesPerSec != want {
				t.Errorf("%s: Figure 15 prints %g B/s, Figure 12 %g B/s", p.Label, p.BytesPerSec, want)
			}
		}
	}
	if want := quickOpts().size().tradeoffs; shared != want {
		t.Errorf("%d MLEC points shared between the figures, want %d", shared, want)
	}
}
