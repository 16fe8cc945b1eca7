package poolsim

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"mlec/internal/failure"
	"mlec/internal/runctl"
)

// TestSplitCheckpointResumeDeterministic is the determinism contract of
// the run-control layer: a campaign cancelled after level 1 and resumed
// from its checkpoint must produce a result identical to the same
// campaign run uninterrupted — not statistically close, identical.
func TestSplitCheckpointResumeDeterministic(t *testing.T) {
	cfg := hotConfig(true)
	ttf := failure.MustExponentialAFR(0.8)
	path := filepath.Join(t.TempDir(), "split.ckpt")

	ref, err := Split(cfg, ttf, SplitConfig{TrajectoriesPerLevel: 3000, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.LevelProbs) < 2 {
		t.Fatalf("reference campaign too shallow (%d levels) to interrupt", len(ref.LevelProbs))
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sc := SplitConfig{
		TrajectoriesPerLevel: 3000, Seed: 31, CheckpointPath: path,
		onLevelDone: func(level int) {
			if level == 1 {
				cancel()
			}
		},
	}
	partial, err := SplitContext(ctx, cfg, ttf, sc)
	if err != nil {
		t.Fatal(err)
	}
	if !partial.Partial {
		t.Fatal("interrupted run not marked Partial")
	}
	if len(partial.LevelProbs) != 1 {
		t.Fatalf("interrupted run completed %d levels, want 1", len(partial.LevelProbs))
	}
	if partial.CatRateHi < ref.CatRateHi {
		t.Errorf("partial CatRateHi %g narrower than full run's %g", partial.CatRateHi, ref.CatRateHi)
	}

	resumed, err := Split(cfg, ttf, SplitConfig{TrajectoriesPerLevel: 3000, Seed: 31, CheckpointPath: path})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed, ref) {
		t.Errorf("resumed run differs from uninterrupted run:\nresumed: %+v\nref:     %+v", resumed, ref)
	}
}

// TestSplitCheckpointRejectsOtherCampaign: resuming into a different
// seed must fail loudly, never silently mix statistics.
func TestSplitCheckpointRejectsOtherCampaign(t *testing.T) {
	cfg := hotConfig(true)
	ttf := failure.MustExponentialAFR(0.8)
	path := filepath.Join(t.TempDir(), "split.ckpt")
	if _, err := Split(cfg, ttf, SplitConfig{TrajectoriesPerLevel: 500, Seed: 1, CheckpointPath: path}); err != nil {
		t.Fatal(err)
	}
	if _, err := Split(cfg, ttf, SplitConfig{TrajectoriesPerLevel: 500, Seed: 2, CheckpointPath: path}); err == nil {
		t.Fatal("checkpoint from seed 1 accepted by seed-2 campaign")
	}
}

// TestSplitCancelLeavesNoWorkers: a mid-campaign cancellation must
// drain the worker pool completely — the counting pool's live gauge
// returns to zero before SplitContext returns.
func TestSplitCancelLeavesNoWorkers(t *testing.T) {
	cfg := hotConfig(true)
	ttf := failure.MustExponentialAFR(0.8)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sc := SplitConfig{
		TrajectoriesPerLevel: 20000, Seed: 5,
		onLevelDone: func(int) { cancel() },
	}
	res, err := SplitContext(ctx, cfg, ttf, sc)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial {
		t.Error("cancelled campaign not marked Partial")
	}
	if n := runctl.Live(); n != 0 {
		t.Errorf("%d pool workers still live after cancelled SplitContext returned", n)
	}
}

func TestLongRunContextCancel(t *testing.T) {
	ttf := failure.MustExponentialAFR(0.5)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancelled before the first event
	stats, err := LongRunContext(ctx, hotConfig(true), ttf, 200, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Partial {
		t.Error("cancelled LongRun not marked Partial")
	}
	if stats.SimYears >= 200 {
		t.Errorf("cancelled run claims %g simulated years", stats.SimYears)
	}
}

func TestReplayTraceContextCancel(t *testing.T) {
	tr := &failure.Trace{Events: []failure.Event{{TimeHours: 1, Disk: 0}, {TimeHours: 2, Disk: 1}}}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	stats, err := ReplayTraceContext(ctx, hotConfig(true), tr, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !stats.Partial {
		t.Error("cancelled replay not marked Partial")
	}
}

// TestSplitResumesParentCheckpoint: testdata/split_parent.ckpt was
// written by the commit before Machine (two-form snapshots, hand-written
// encoder) two levels into the campaign below. Resuming it must give the
// result of an uninterrupted run — the one this code computes and, bit
// for bit, the one that commit computed.
func TestSplitResumesParentCheckpoint(t *testing.T) {
	cfg := hotConfig(false)
	ttf := failure.MustExponentialAFR(0.8)
	ckpt, err := os.ReadFile(filepath.Join("testdata", "split_parent.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "split.ckpt") // a resumed run writes to its checkpoint
	if err := os.WriteFile(path, ckpt, 0o600); err != nil {
		t.Fatal(err)
	}
	var ran []int
	resumed, err := Split(cfg, ttf, SplitConfig{TrajectoriesPerLevel: 400, Seed: 47, CheckpointPath: path,
		onLevelDone: func(level int) { ran = append(ran, level) }})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ran, []int{3, 4, 5}) {
		t.Fatalf("resumed run simulated levels %v, want 3 4 5 on top of the checkpoint's two", ran)
	}
	ref, err := Split(cfg, ttf, SplitConfig{TrajectoriesPerLevel: 400, Seed: 47})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed, ref) {
		t.Errorf("resumed run differs from uninterrupted run:\nresumed: %+v\nref:     %+v", resumed, ref)
	}
	gotBits := append(floatBits(resumed.LevelProbs...), floatBits(resumed.CatRatePerPoolHour, resumed.CatRateLo, resumed.CatRateHi)...)
	wantBits := []uint64{0x3fb3333333333333, 0x3fbeb851eb851eb8, 0x3fbeb851eb851eb8, 0x3fbccccccccccccd, 0x3fbb851eb851eb85,
		0x3eec9ab1ee3c2d2b, 0x3ee208342a8c4dd4, 0x3ef3979cd751b61d}
	if !reflect.DeepEqual(gotBits, wantBits) || len(resumed.Samples) != 80 || samplesDigest(resumed.Samples) != 0xa77b0ae02ecaa643 {
		t.Errorf("resumed run differs from the parent commit's uninterrupted run:\n got %#x, %d samples, digest %#x\nwant %#x, 80 samples, digest 0xa77b0ae02ecaa643",
			gotBits, len(resumed.Samples), samplesDigest(resumed.Samples), wantBits)
	}
}
