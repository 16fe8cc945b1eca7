package burst

import (
	"context"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"
)

// layoutEvaluator's conditional PDL depends on the sampled layout, so
// any divergence in RNG streams between a resumed and an uninterrupted
// campaign shows up in the mean — unlike a constant evaluator.
type layoutEvaluator struct{ racks, dpr int }

func (h *layoutEvaluator) ConditionalPDL(l *BurstLayout) float64 {
	x := 0
	for i, r := range l.Racks {
		x += (i + 1) * r
	}
	for _, ds := range l.FailedDisks {
		for _, d := range ds {
			x += d
		}
	}
	return float64(x%1000) / 1000
}
func (h *layoutEvaluator) TotalRacks() int   { return h.racks }
func (h *layoutEvaluator) DisksPerRack() int { return h.dpr }

// cancellingEvaluator cancels the campaign's context after a fixed
// number of conditional evaluations, giving tests a deterministic
// "interrupt somewhere in the middle" without timers.
type cancellingEvaluator struct {
	inner  Evaluator
	after  int64
	calls  atomic.Int64
	cancel context.CancelFunc
}

func (c *cancellingEvaluator) ConditionalPDL(l *BurstLayout) float64 {
	if c.calls.Add(1) == c.after {
		c.cancel()
	}
	return c.inner.ConditionalPDL(l)
}
func (c *cancellingEvaluator) TotalRacks() int   { return c.inner.TotalRacks() }
func (c *cancellingEvaluator) DisksPerRack() int { return c.inner.DisksPerRack() }

func TestPDLCheckpointResumeDeterministic(t *testing.T) {
	ev := &layoutEvaluator{racks: 20, dpr: 30}
	const x, y, trials = 3, 40, 38400 // 600 batches, 3 rounds
	var seed int64 = 99
	path := filepath.Join(t.TempDir(), "pdl.ckpt")

	ref, err := PDLContext(context.Background(), ev, x, y, trials, seed, "")
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cev := &cancellingEvaluator{inner: ev, after: 1000, cancel: cancel}
	partial, err := PDLContext(ctx, cev, x, y, trials, seed, path)
	if err != nil {
		t.Fatal(err)
	}
	if !partial.Partial {
		t.Fatal("interrupted run not marked Partial")
	}
	if partial.Trials >= trials {
		t.Fatalf("interrupted run completed all %d trials", partial.Trials)
	}
	if partial.Hi-partial.Lo < ref.Hi-ref.Lo {
		t.Errorf("partial CI [%g,%g] narrower than full run's [%g,%g]",
			partial.Lo, partial.Hi, ref.Lo, ref.Hi)
	}

	resumed, err := PDLContext(context.Background(), ev, x, y, trials, seed, path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed, ref) {
		t.Errorf("resumed run differs from uninterrupted run:\nresumed: %+v\nref:     %+v", resumed, ref)
	}

	// A checkpoint of a completed campaign replays the final result.
	replayed, err := PDLContext(context.Background(), ev, x, y, trials, seed, path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replayed, ref) {
		t.Errorf("replay from completed checkpoint differs: %+v", replayed)
	}
}

func TestPDLCheckpointRejectsOtherCell(t *testing.T) {
	ev := &layoutEvaluator{racks: 20, dpr: 30}
	path := filepath.Join(t.TempDir(), "pdl.ckpt")
	if _, err := PDLContext(context.Background(), ev, 3, 40, 640, 1, path); err != nil {
		t.Fatal(err)
	}
	if _, err := PDLContext(context.Background(), ev, 4, 40, 640, 1, path); err == nil {
		t.Fatal("checkpoint for cell (3,40) accepted by cell (4,40)")
	}
}

func TestHeatmapContextResumeDeterministic(t *testing.T) {
	ev := &layoutEvaluator{racks: 20, dpr: 30}
	xs, ys := []int{2, 3}, []int{20, 30}
	const trials = 640
	var seed int64 = 7
	path := filepath.Join(t.TempDir(), "grid.ckpt")

	ref, err := HeatmapContext(context.Background(), ev, xs, ys, trials, seed, "")
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cev := &cancellingEvaluator{inner: ev, after: 700, cancel: cancel}
	partial, err := HeatmapContext(ctx, cev, xs, ys, trials, seed, path)
	if err != nil {
		t.Fatal(err)
	}
	if !partial.Partial {
		t.Fatal("interrupted grid not marked Partial")
	}
	if partial.Cells[0][0] != ref.Cells[0][0] {
		t.Errorf("first cell completed before the cancel should match: %+v vs %+v",
			partial.Cells[0][0], ref.Cells[0][0])
	}

	resumed, err := HeatmapContext(context.Background(), ev, xs, ys, trials, seed, path)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Partial {
		t.Error("resumed grid still Partial")
	}
	if !reflect.DeepEqual(resumed.Cells, ref.Cells) {
		t.Errorf("resumed grid differs from uninterrupted grid")
	}
}
