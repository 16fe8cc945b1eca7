package burst

import (
	"context"
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"mlec/internal/faultinject"
	"mlec/internal/obs"
	"mlec/internal/runctl"
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

// nearOneEvaluator returns 1 − 1e-10·v for layoutEvaluator's v, and
// records every v. Σpdl²/n − mean² cannot resolve a variance of 1e-21
// next to 1: it rounds to 0 or to noise near 1e-16.
type nearOneEvaluator struct {
	layoutEvaluator
	mu sync.Mutex
	vs []float64
}

func (h *nearOneEvaluator) ConditionalPDL(l *BurstLayout) float64 {
	v := h.layoutEvaluator.ConditionalPDL(l)
	h.mu.Lock()
	h.vs = append(h.vs, v)
	h.mu.Unlock()
	return 1 - 1e-10*v
}

// TestPDLIntervalNearOne: a cell whose trials differ only in the tenth
// decimal below 1 gets the interval of its spread — 1.96 standard
// errors, computed here from the recorded v's — not a zero-width or a
// noise-sized one.
func TestPDLIntervalNearOne(t *testing.T) {
	ev := &nearOneEvaluator{layoutEvaluator: layoutEvaluator{racks: 20, dpr: 30}}
	r, err := PDLContext(context.Background(), ev, 3, 40, 600, 5, "")
	if err != nil {
		t.Fatal(err)
	}
	n := float64(len(ev.vs))
	var mean, ss float64
	for _, v := range ev.vs {
		mean += v / n
	}
	for _, v := range ev.vs {
		ss += (v - mean) * (v - mean)
	}
	want := 1.96 * 1e-10 * math.Sqrt(ss/n/n)
	if got := r.Hi - r.PDL; !(math.Abs(got/want-1) < 1e-3) || !(r.Lo < r.PDL) {
		t.Errorf("PDL %.17g with interval [%.17g, %.17g]: half-width %.3g, want %.3g", r.PDL, r.Lo, r.Hi, got, want)
	}
}

// TestPDLCheckpointRejectsOtherSampler: a checkpoint whose fingerprint
// lacks this sampler's name — one written before the name entered the
// fingerprint — fails to load instead of mixing two samplers' batches.
func TestPDLCheckpointRejectsOtherSampler(t *testing.T) {
	ev := &layoutEvaluator{racks: 20, dpr: 30}
	path := filepath.Join(t.TempDir(), "pdl.ckpt")
	old := strings.TrimSuffix(pdlFingerprint(ev, 3, 40, 640, 1), "|sampler="+samplerID)
	ck := pdlCheckpoint{Done: make([]bool, 10), Ns: make([]int, 10), Means: make([]float64, 10), M2s: make([]float64, 10)}
	if err := runctl.SaveCheckpoint(path, pdlCheckpointKind, old, ck); err != nil {
		t.Fatal(err)
	}
	if _, err := PDLContext(context.Background(), ev, 3, 40, 640, 1, path); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("checkpoint of another sampler: error %v, want a fingerprint mismatch", err)
	}
}

// TestHeatmapCheckpointsUndefinedCells checkpoints a grid with a cell
// where no burst fits (y < x), as every paper grid has: the save
// succeeds, since the per-batch tallies hold none of the cell's NaN,
// which JSON cannot encode, and a run from the finished checkpoint
// replays the grid.
func TestHeatmapCheckpointsUndefinedCells(t *testing.T) {
	ev := &layoutEvaluator{racks: 20, dpr: 30}
	xs, ys := []int{2, 15}, []int{10, 20}
	path := filepath.Join(t.TempDir(), "grid.ckpt")
	g, err := HeatmapContext(context.Background(), ev, xs, ys, 640, 5, path)
	if err != nil {
		t.Fatal(err)
	}
	if c := g.Cells[0][1]; !math.IsNaN(c.PDL) || c.Trials != 0 {
		t.Fatalf("cell (15, 10) holds %+v, want the undefined NaN", c)
	}
	replayed, err := HeatmapContext(context.Background(), ev, xs, ys, 640, 5, path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replayed.Cells[1], g.Cells[1]) || replayed.Cells[0][0] != g.Cells[0][0] {
		t.Errorf("replay from the finished checkpoint differs:\nreplayed: %+v\nfirst:    %+v", replayed.Cells, g.Cells)
	}
}

// TestHeatmapResumesAfterRoundFault runs a grid of 320 batches, two
// rounds, under a fault on the first batch of round 2: the campaign
// fails after round 1's save, which holds 256 batches, and the resumed
// grid equals the uninterrupted one.
func TestHeatmapResumesAfterRoundFault(t *testing.T) {
	ev := &layoutEvaluator{racks: 20, dpr: 30}
	xs, ys := []int{2, 3}, []int{20, 30}
	const trials = 80 * pdlBatchTrials // 4 cells × 80 batches
	var seed int64 = 11
	path := filepath.Join(t.TempDir(), "grid.ckpt")

	ref, err := HeatmapContext(context.Background(), ev, xs, ys, trials, seed, "")
	if err != nil {
		t.Fatal(err)
	}

	plan, err := faultinject.Parse(fmt.Sprintf("burst.batch:panic:nth=%d", pdlRoundSize+1))
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(plan)
	_, err = HeatmapContext(context.Background(), ev, xs, ys, trials, seed, path)
	faultinject.Disable()
	var pe *runctl.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("faulted grid returned %v, want a *runctl.PanicError", err)
	}
	var saved pdlCheckpoint
	if ok, err := runctl.LoadCheckpoint(path, pdlCheckpointKind, gridFingerprint(ev, xs, ys, trials, seed), &saved); !ok || err != nil {
		t.Fatalf("no round-1 checkpoint after the fault: ok=%v err=%v", ok, err)
	}
	done := 0
	for _, d := range saved.Done {
		if d {
			done++
		}
	}
	if done != pdlRoundSize {
		t.Errorf("the save before the fault holds %d batches, want round 1's %d", done, pdlRoundSize)
	}

	resumed, err := HeatmapContext(context.Background(), ev, xs, ys, trials, seed, path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed, ref) {
		t.Errorf("resumed grid differs from the uninterrupted grid:\nresumed: %+v\nref:     %+v", resumed.Cells, ref.Cells)
	}
}

// countdownCtx is a context whose Err reports context.Canceled from
// its (k+1)th call on; Done never closes. It measures how often a
// campaign polls its context, independent of timing.
type countdownCtx struct {
	context.Context
	left atomic.Int64
}

func (c *countdownCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestHeatmapDrainsWithinPollBudget pins the per-batch context poll of
// the campaign loop: once the context reports cancellation after k
// polls, a grid of 400 batches stops within k batches plus one per
// worker, counted by the trial counter.
func TestHeatmapDrainsWithinPollBudget(t *testing.T) {
	const k = 50
	ev := &layoutEvaluator{racks: 20, dpr: 30}
	ctx := &countdownCtx{Context: context.Background()}
	ctx.left.Store(k)
	trials := obs.Default.Counter("burst_pdl_trials_total")
	before := trials.Value()
	g, err := HeatmapContext(ctx, ev, []int{2, 3}, []int{20, 30}, 100*pdlBatchTrials, 3, "")
	if err != nil {
		t.Fatal(err)
	}
	if !g.Partial {
		t.Error("cancelled grid not marked Partial")
	}
	workers := int64(runtime.NumCPU())
	if batches := (trials.Value() - before) / pdlBatchTrials; batches > k+workers {
		t.Errorf("ran %d batches after cancellation at poll %d, want at most %d (k + %d workers)",
			batches, k, k+workers, workers)
	}
}

// TestHeatmapRefusesParentGridCheckpoint writes a grid checkpoint in the
// shape older builds saved — kind "burst.grid", finished cells as
// Results — and requires the grid to refuse it by kind, not decode it.
func TestHeatmapRefusesParentGridCheckpoint(t *testing.T) {
	ev := &layoutEvaluator{racks: 20, dpr: 30}
	xs, ys := []int{2, 3}, []int{20, 30}
	path := filepath.Join(t.TempDir(), "grid.ckpt")
	parent := struct {
		Done  [][]bool   `json:"done"`
		Cells [][]Result `json:"cells"`
	}{
		Done:  [][]bool{{true, false}, {false, false}},
		Cells: [][]Result{{{Racks: 2, Failures: 20, PDL: 0.5, Lo: 0.4, Hi: 0.6, Trials: 640}, {}}, {{}, {}}},
	}
	if err := runctl.SaveCheckpoint(path, "burst.grid", gridFingerprint(ev, xs, ys, 640, 7), parent); err != nil {
		t.Fatal(err)
	}
	_, err := HeatmapContext(context.Background(), ev, xs, ys, 640, 7, path)
	if err == nil || !strings.Contains(err.Error(), `holds "burst.grid" state`) {
		t.Fatalf("parent grid checkpoint: error %v, want a kind mismatch", err)
	}
}
