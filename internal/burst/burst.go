// Package burst computes the probability of data loss (PDL) under
// correlated failure bursts: y simultaneous disk failures randomly
// scattered across x racks (the paper's Figures 5, 13 and 16).
//
// The estimator is a conditional-expectation Monte Carlo (a form of the
// paper's "splitting + dynamic programming" strategy): each trial samples
// a concrete burst layout (which racks, which disks), then computes the
// probability of losing at least one stripe *analytically* given that
// layout — the stripe-placement randomness is integrated out exactly via
// hypergeometric and Poisson-binomial dynamic programs at true chunk
// granularity. Averaging the per-trial conditional PDL over layouts gives
// an unbiased, low-variance estimate of the cell PDL.
//
// For the local-clustered SLEC placement an exact evaluator (full dynamic
// programming over per-rack failure compositions, no sampling at all) is
// provided and used by the tests to validate the Monte Carlo machinery.
package burst

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"

	"mlec/internal/faultinject"
	"mlec/internal/mathx"
	"mlec/internal/mathx/rngsplit"
	"mlec/internal/obs"
	"mlec/internal/runctl"
)

// Result is a PDL estimate for one (x racks, y failures) cell.
type Result struct {
	Racks    int // x
	Failures int // y
	PDL      float64
	// Lo and Hi bound the estimate: the 95% Wilson interval of the
	// per-trial conditional PDLs treated as Bernoulli outcomes would be
	// too pessimistic for a conditional estimator, so we report ±1.96
	// standard errors of the trial mean instead.
	Lo, Hi float64
	Trials int
	// Partial marks an estimate cut short by context cancellation or
	// deadline: Trials holds the trials actually completed and the
	// interval reflects only those, so the CI is honestly wider than a
	// full run's. A cell cancelled before any batch completed reports
	// PDL = NaN and Trials = 0.
	Partial bool
}

// Nines returns the durability nines of the cell.
func (r Result) Nines() float64 { return mathx.Nines(mathx.Prob(r.PDL)) }

// Evaluator computes the conditional PDL of one sampled burst layout.
// Implementations must be safe for concurrent use and must not retain
// the layout: the estimator reuses it for the next trial.
type Evaluator interface {
	// ConditionalPDL returns P(data loss | this burst layout),
	// integrating over stripe placement randomness.
	ConditionalPDL(layout *BurstLayout) float64
	// TotalRacks returns the rack count of the underlying topology.
	TotalRacks() int
	// DisksPerRack returns the per-rack disk count.
	DisksPerRack() int
}

// BurstLayout is one sampled failure burst: the affected racks and the
// failed disks within each (disk indices are rack-local, in
// [0, DisksPerRack)).
type BurstLayout struct {
	Racks       []int   // affected rack ids, ascending
	FailedDisks [][]int // parallel to Racks; each non-empty
}

// TotalFailures returns the number of failed disks in the layout.
func (b *BurstLayout) TotalFailures() int {
	n := 0
	for _, d := range b.FailedDisks {
		n += len(d)
	}
	return n
}

// Trials are partitioned into fixed batches whose RNG streams are pure
// functions of (seed, x, y, batch index): the tallies a batch produces
// do not depend on worker scheduling, which batches ran in the same
// process, or whether the run was resumed from a checkpoint. Rounds
// bound how much work is in flight between checkpoint writes and
// context polls.
const (
	pdlBatchTrials = 64
	pdlRoundSize   = 256
)

// PDLContext estimates the probability of data loss for a single (x, y)
// cell by Monte Carlo over burst layouts, with trials split across CPUs.
// Cancellation or a deadline stops the campaign at the next batch-round
// boundary, drains in-flight batches, and returns the completed trials
// as a Partial estimate. With a non-empty checkpointPath the per-batch
// tallies persist after every round and a later call with the same
// arguments resumes, reproducing the uninterrupted run's statistics
// exactly (the reduction always runs in batch order over the same
// per-batch means and squared deviations).
func PDLContext(ctx context.Context, ev Evaluator, x, y, trials int, seed int64, checkpointPath string) (Result, error) {
	if trials <= 0 {
		return Result{}, fmt.Errorf("burst: trials = %d", trials)
	}
	if y < x || x < 1 || x > ev.TotalRacks() || y > x*ev.DisksPerRack() {
		return Result{Racks: x, Failures: y, PDL: math.NaN()}, nil
	}
	nb := (trials + pdlBatchTrials - 1) / pdlBatchTrials
	ck := pdlCheckpoint{
		Done:  make([]bool, nb),
		Ns:    make([]int, nb),
		Means: make([]float64, nb),
		M2s:   make([]float64, nb),
	}
	var fp string
	if checkpointPath != "" {
		fp = pdlFingerprint(ev, x, y, trials, seed)
		var prev pdlCheckpoint
		ok, err := runctl.LoadCheckpoint(checkpointPath, pdlCheckpointKind, fp, &prev)
		if err != nil {
			return Result{}, err
		}
		if ok {
			if len(prev.Done) != nb || len(prev.Ns) != nb || len(prev.Means) != nb || len(prev.M2s) != nb {
				return Result{}, fmt.Errorf("burst: checkpoint %s has %d batches, campaign has %d", checkpointPath, len(prev.Done), nb)
			}
			ck = prev
		}
	}

	// Observability: per-cell progress plus registry counters. Updates
	// are write-only tallies of work the estimator already decided to
	// do, so they cannot influence the estimate.
	task := obs.Progress.StartTask(fmt.Sprintf("burst.pdl x=%d y=%d", x, y), int64(trials))
	defer task.Finish()
	restored := 0
	for b := 0; b < nb; b++ {
		if ck.Done[b] {
			restored += ck.Ns[b]
		}
	}
	task.SetDone(int64(restored))
	trialCount := obs.Default.Counter("burst_pdl_trials_total")
	batchCount := obs.Default.Counter("burst_pdl_batches_total")
	span := obs.StartSpan("burst.pdl")
	defer func() {
		if span != nil {
			span.EndNote(fmt.Sprintf("x=%d y=%d trials=%d", x, y, trials))
		}
	}()

	cellSeed := seed ^ int64(x)<<20 ^ int64(y)
	for start := 0; start < nb; {
		var round []int
		for ; start < nb && len(round) < pdlRoundSize; start++ {
			if !ck.Done[start] {
				round = append(round, start)
			}
		}
		if len(round) == 0 {
			continue
		}
		if ctx.Err() != nil {
			break
		}
		pool := runctl.NewPool(ctx)
		//lint:allow walltime the span is an opaque obs handle the pool only hands back to obs for stream children; no wall-clock value reaches the simulation
		pool.SetParentSpan(span)
		for _, b := range round {
			b := b
			stream := rngsplit.Mix(cellSeed, b)
			pool.Go(stream, func(ctx context.Context) error {
				if ctx.Err() != nil {
					return nil // drain: this batch replays on resume
				}
				// Chaos hook: a faulted batch fails the round before
				// its save; a resume replays the round from the same
				// streams, byte-identical to a clean one.
				if err := faultinject.Fire("burst.batch", stream); err != nil {
					return err
				}
				rng := rand.New(rand.NewSource(stream))
				lo := b * pdlBatchTrials
				hi := lo + pdlBatchTrials
				if hi > trials {
					hi = trials
				}
				// One sampler, and so one layout, serves the whole
				// batch; a batch that panics abandons its sampler.
				sampler := samplers.Get().(*layoutSampler)
				// Welford's update: the batch's mean and sum of squared
				// deviations, without the cancellation of Σpdl² − n·mean².
				var mean, m2 float64
				for i := lo; i < hi; i++ {
					layout, err := sampler.sample(rng, ev.TotalRacks(), ev.DisksPerRack(), x, y)
					if err != nil {
						return err
					}
					pdl := ev.ConditionalPDL(layout)
					d := pdl - mean
					mean += d / float64(i-lo+1)
					m2 += d * (pdl - mean)
				}
				// Each batch owns distinct slice elements; Wait orders
				// these writes before the reduction below.
				ck.Ns[b], ck.Means[b], ck.M2s[b] = hi-lo, mean, m2
				ck.Done[b] = true
				trialCount.Add(int64(hi - lo))
				batchCount.Inc()
				task.Add(int64(hi - lo))
				samplers.Put(sampler)
				return nil
			})
		}
		if err := pool.Wait(); err != nil {
			return Result{}, err
		}
		if checkpointPath != "" {
			if err := runctl.SaveCheckpoint(checkpointPath, pdlCheckpointKind, fp, ck); err != nil {
				return Result{}, err
			}
		}
		if ctx.Err() != nil {
			break
		}
	}

	// Merge the batches in batch order by Chan et al.'s pairwise update.
	// The first batch is taken as it is, so a constant evaluator's mean
	// is its value to the bit.
	var (
		mean, m2        float64
		done, completed int
	)
	for b := 0; b < nb; b++ {
		if !ck.Done[b] {
			continue
		}
		completed++
		n := ck.Ns[b]
		if done == 0 {
			mean, m2, done = ck.Means[b], ck.M2s[b], n
			continue
		}
		tot := done + n
		d := ck.Means[b] - mean
		mean += d * float64(n) / float64(tot)
		m2 += ck.M2s[b] + d*d*float64(done)*float64(n)/float64(tot)
		done = tot
	}
	if done == 0 {
		return Result{Racks: x, Failures: y, PDL: math.NaN(), Lo: 0, Hi: 1, Partial: true}, nil
	}
	se := math.Sqrt(m2 / float64(done) / float64(done))
	lo, hi := mean-1.96*se, mean+1.96*se
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return Result{Racks: x, Failures: y, PDL: mean, Lo: lo, Hi: hi, Trials: done, Partial: completed < nb}, nil
}

// Grid holds a PDL heatmap: Cells[iy][ix] corresponds to Ys[iy] failures
// across Xs[ix] racks.
type Grid struct {
	Xs, Ys []int
	Cells  [][]Result
	// Partial marks a grid cut short by cancellation or deadline:
	// unevaluated cells hold PDL = NaN (and are skipped by WriteCSV),
	// exactly like the undefined y < x cells.
	Partial bool
}

// HeatmapContext evaluates a whole grid of (x, y) cells, checkpointing
// at cell granularity: each fully evaluated cell persists to
// checkpointPath (when non-empty) and is restored verbatim on resume; a
// cell cut short mid-campaign is discarded and re-evaluated, so resumed
// grids match uninterrupted ones exactly. On cancellation the remaining
// cells are NaN and the grid is marked Partial.
func HeatmapContext(ctx context.Context, ev Evaluator, xs, ys []int, trials int, seed int64, checkpointPath string) (*Grid, error) {
	g := &Grid{Xs: xs, Ys: ys, Cells: make([][]Result, len(ys))}
	ck := gridCheckpoint{
		Done:  make([][]bool, len(ys)),
		Cells: make([][]Result, len(ys)),
	}
	for iy := range ys {
		g.Cells[iy] = make([]Result, len(xs))
		ck.Done[iy] = make([]bool, len(xs))
		ck.Cells[iy] = make([]Result, len(xs))
	}
	var fp string
	if checkpointPath != "" {
		fp = gridFingerprint(ev, xs, ys, trials, seed)
		var prev gridCheckpoint
		ok, err := runctl.LoadCheckpoint(checkpointPath, gridCheckpointKind, fp, &prev)
		if err != nil {
			return nil, err
		}
		if ok {
			if len(prev.Done) != len(ys) || len(prev.Cells) != len(ys) {
				return nil, fmt.Errorf("burst: checkpoint %s grid shape mismatch", checkpointPath)
			}
			for iy := range ys {
				if len(prev.Done[iy]) != len(xs) || len(prev.Cells[iy]) != len(xs) {
					return nil, fmt.Errorf("burst: checkpoint %s grid shape mismatch", checkpointPath)
				}
			}
			ck = prev
		}
	}

	// Observability: grid progress at cell granularity (the DP cell
	// throughput signal), counting restored cells as already done.
	gridTask := obs.Progress.StartTask("burst.grid", int64(len(xs)*len(ys)))
	defer gridTask.Finish()
	cellCount := obs.Default.Counter("burst_grid_cells_total")
	restoredCells := 0
	for iy := range ys {
		for ix := range xs {
			if ck.Done[iy][ix] {
				restoredCells++
			}
		}
	}
	gridTask.SetDone(int64(restoredCells))

	for iy, y := range ys {
		for ix, x := range xs {
			if ck.Done[iy][ix] {
				g.Cells[iy][ix] = ck.Cells[iy][ix]
				continue
			}
			if ctx.Err() != nil {
				g.Partial = true
				g.Cells[iy][ix] = Result{Racks: x, Failures: y, PDL: math.NaN()}
				continue
			}
			r, err := PDLContext(ctx, ev, x, y, trials, seed+int64(iy*len(xs)+ix), "")
			if err != nil {
				return nil, err
			}
			if r.Partial {
				// Mid-cell cancellation: discard so the cell re-runs in
				// full on resume rather than entering the grid with a
				// different trial count.
				g.Partial = true
				g.Cells[iy][ix] = Result{Racks: x, Failures: y, PDL: math.NaN()}
				continue
			}
			g.Cells[iy][ix] = r
			ck.Done[iy][ix] = true
			ck.Cells[iy][ix] = r
			cellCount.Inc()
			gridTask.Add(1)
			if checkpointPath != "" {
				if err := runctl.SaveCheckpoint(checkpointPath, gridCheckpointKind, fp, ck); err != nil {
					return nil, err
				}
			}
		}
	}
	return g, nil
}

// poissonBinomialTail returns P(ΣX_i ≥ k) for independent Bernoulli
// variables with the given success probabilities: the capped PMF's last
// entry.
func poissonBinomialTail(probs []float64, k int) float64 {
	if k <= 0 {
		return 1
	}
	if k > len(probs) {
		return 0
	}
	var buf [stackDist]float64
	return poissonBinomialPMFCapped(buf[:0], probs, k)[k]
}

// WriteCSV emits the grid as "x,y,pdl,lo,hi,trials" rows for external
// plotting tools. NaN cells (undefined, y < x) are skipped.
func (g *Grid) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "racks,failures,pdl,ci_lo,ci_hi,trials"); err != nil {
		return err
	}
	for iy, y := range g.Ys {
		for ix, x := range g.Xs {
			c := g.Cells[iy][ix]
			if c.PDL != c.PDL { // NaN
				continue
			}
			if _, err := fmt.Fprintf(w, "%d,%d,%g,%g,%g,%d\n", x, y, c.PDL, c.Lo, c.Hi, c.Trials); err != nil {
				return err
			}
		}
	}
	return nil
}
