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
// cell by Monte Carlo over burst layouts, with trials split across CPUs:
// a campaign of one cell. Cancellation or a deadline stops the campaign
// at the next batch, drains in-flight batches, and returns the
// completed trials as a Partial estimate. With a non-empty
// checkpointPath the per-batch tallies persist after every round and a
// later call with the same arguments resumes, reproducing the
// uninterrupted run's statistics exactly (the reduction always runs in
// batch order over the same per-batch means and squared deviations).
func PDLContext(ctx context.Context, ev Evaluator, x, y, trials int, seed int64, checkpointPath string) (Result, error) {
	fp := func() string { return pdlFingerprint(ev, x, y, trials, seed) }
	g, err := campaign(ctx, ev, []int{x}, []int{y}, trials, seed, checkpointPath, fp, fmt.Sprintf("x=%d y=%d", x, y))
	if err != nil {
		return Result{}, err
	}
	return g.Cells[0][0], nil
}

// campaign is the batch Monte Carlo behind PDLContext and
// HeatmapContext. The cells of the grid where a burst fits — at least
// one failure in each of x racks that exist — are evaluated, in
// row-major order; cell i draws its batch b from
// rngsplit.Mix((seed+i) ^ x<<20 ^ y, b). Batch b of the c-th evaluated
// cell is unit c·nb + b; the units run through runctl's fan-out loop in
// rounds of pdlRoundSize, skipping those a checkpoint holds, and the
// per-batch tallies are saved after every round, under the campaign's
// fingerprint. Each cell's batches are then merged in batch order into
// its Result, Partial if they did not all complete and NaN if none did;
// the other cells are NaN.
func campaign(ctx context.Context, ev Evaluator, xs, ys []int, trials int, seed int64, path string, fingerprint func() string, label string) (*Grid, error) {
	if trials <= 0 {
		return nil, fmt.Errorf("burst: trials = %d", trials)
	}
	g := &Grid{Xs: xs, Ys: ys, Cells: make([][]Result, len(ys))}
	type cell struct {
		x, y int
		seed int64
		out  *Result
	}
	var cells []cell
	for iy, y := range ys {
		g.Cells[iy] = make([]Result, len(xs))
		for ix, x := range xs {
			g.Cells[iy][ix] = Result{Racks: x, Failures: y, PDL: math.NaN()}
			if x >= 1 && y >= x && x <= ev.TotalRacks() && y <= x*ev.DisksPerRack() {
				i := int64(iy*len(xs) + ix)
				cells = append(cells, cell{x, y, (seed + i) ^ int64(x)<<20 ^ int64(y), &g.Cells[iy][ix]})
			}
		}
	}
	nb := (trials + pdlBatchTrials - 1) / pdlBatchTrials
	n := len(cells) * nb
	ck := pdlCheckpoint{
		Done:  make([]bool, n),
		Ns:    make([]int, n),
		Means: make([]float64, n),
		M2s:   make([]float64, n),
	}
	var fp string // of a checkpointed campaign
	if path != "" {
		fp = fingerprint()
		var prev pdlCheckpoint
		ok, err := runctl.LoadCheckpoint(path, pdlCheckpointKind, fp, &prev)
		if err != nil {
			return nil, err
		}
		if ok {
			if len(prev.Done) != n || len(prev.Ns) != n || len(prev.Means) != n || len(prev.M2s) != n {
				return nil, fmt.Errorf("burst: checkpoint %s has %d batches, campaign has %d", path, len(prev.Done), n)
			}
			ck = prev
		}
	}

	// Observability: campaign progress plus the trial counter. Updates
	// are write-only tallies of work the estimator already decided to
	// do, so they cannot influence the estimate.
	task := obs.Progress.StartTask("burst.pdl "+label, int64(len(cells))*int64(trials))
	defer task.Finish()
	restored := 0
	for _, n := range ck.Ns { // 0 for a batch not done
		restored += n
	}
	task.SetDone(int64(restored))
	trialCount := obs.Default.Counter("burst_pdl_trials_total")
	span := obs.StartSpan("burst.pdl")
	defer func() {
		if span != nil {
			span.EndNote(fmt.Sprintf("%s trials=%d", label, trials))
		}
	}()

	stream := func(u int) int64 { return rngsplit.Mix(cells[u/nb].seed, u%nb) }
	var round []int
	// batch runs the trials of unit round[i] on a pooled sampler, its
	// generator reseeded with the batch's stream, and stores the batch's
	// tallies in the unit's slots.
	batch := func(i int) error {
		u := round[i]
		c, b := cells[u/nb], u%nb
		sampler := samplers.Get().(*layoutSampler)
		sampler.rng.Seed(stream(u))
		lo, hi := b*pdlBatchTrials, min((b+1)*pdlBatchTrials, trials)
		// Welford's update: the batch's mean and sum of squared
		// deviations, without the cancellation of Σpdl² − n·mean².
		var mean, m2 float64
		for t := lo; t < hi; t++ {
			layout, err := sampler.sample(sampler.rng, ev.TotalRacks(), ev.DisksPerRack(), c.x, c.y)
			if err != nil {
				return err
			}
			pdl := ev.ConditionalPDL(layout)
			d := pdl - mean
			mean += d / float64(t-lo+1)
			m2 += d * (pdl - mean)
		}
		samplers.Put(sampler) // not deferred: a sampler that panicked mid-draw is not reused
		ck.Ns[u], ck.Means[u], ck.M2s[u], ck.Done[u] = hi-lo, mean, m2, true
		trialCount.Add(int64(hi - lo))
		task.Add(int64(hi - lo))
		return nil
	}
	for start := 0; start < n && ctx.Err() == nil; {
		round = round[:0]
		for ; start < n && len(round) < pdlRoundSize; start++ {
			if !ck.Done[start] {
				round = append(round, start)
			}
		}
		if len(round) == 0 {
			continue
		}
		pool := runctl.NewPool(ctx)
		//lint:allow walltime the span is an opaque obs handle the pool only hands back to obs for stream children; no wall-clock value reaches the simulation
		pool.SetParentSpan(span)
		// A "burst.batch" fault fails the round before its save; a
		// resume replays the round from the same streams,
		// byte-identical to a clean one.
		if err := pool.Each(len(round), func(i int) int64 { return stream(round[i]) }, "burst.batch", func() func(int) error { return batch }); err != nil {
			return nil, err
		}
		if path != "" {
			if err := runctl.SaveCheckpoint(path, pdlCheckpointKind, fp, ck); err != nil {
				return nil, err
			}
		}
	}

	for ci, c := range cells {
		*c.out = merge(c.x, c.y, ck, ci*nb, nb)
	}
	return g, nil
}

// merge reduces the nb batches of cell (x, y), units first … first+nb−1,
// in batch order by Chan et al.'s pairwise update. The first batch is
// taken as it is, so a constant evaluator's mean is its value to the bit.
func merge(x, y int, ck pdlCheckpoint, first, nb int) Result {
	var (
		mean, m2        float64
		done, completed int
	)
	for u := first; u < first+nb; u++ {
		if !ck.Done[u] {
			continue
		}
		completed++
		n := ck.Ns[u]
		if done == 0 {
			mean, m2, done = ck.Means[u], ck.M2s[u], n
			continue
		}
		tot := done + n
		d := ck.Means[u] - mean
		mean += d * float64(n) / float64(tot)
		m2 += ck.M2s[u] + d*d*float64(done)*float64(n)/float64(tot)
		done = tot
	}
	if done == 0 {
		return Result{Racks: x, Failures: y, PDL: math.NaN(), Lo: 0, Hi: 1, Partial: true}
	}
	se := math.Sqrt(m2 / float64(done) / float64(done))
	lo, hi := mean-1.96*se, mean+1.96*se
	if lo < 0 {
		lo = 0
	}
	if hi > 1 {
		hi = 1
	}
	return Result{Racks: x, Failures: y, PDL: mean, Lo: lo, Hi: hi, Trials: done, Partial: completed < nb}
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

// HeatmapContext evaluates a whole grid of (x, y) cells as one
// campaign: the batches of every cell, in row-major cell order, with the
// per-batch tallies checkpointed after every round (when checkpointPath
// is non-empty) and restored on resume, so resumed grids match
// uninterrupted ones exactly. Cell i of the grid draws the batches
// PDLContext at seed+i does. A cell enters the grid only once all its
// batches are done: on cancellation the rest are NaN and the grid is
// marked Partial.
func HeatmapContext(ctx context.Context, ev Evaluator, xs, ys []int, trials int, seed int64, checkpointPath string) (*Grid, error) {
	fp := func() string { return gridFingerprint(ev, xs, ys, trials, seed) }
	g, err := campaign(ctx, ev, xs, ys, trials, seed, checkpointPath, fp, fmt.Sprintf("grid %dx%d", len(xs), len(ys)))
	if err != nil {
		return nil, err
	}
	for _, row := range g.Cells {
		for ix, r := range row {
			if r.Partial {
				g.Partial = true
				row[ix] = Result{Racks: r.Racks, Failures: r.Failures, PDL: math.NaN()}
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
