package experiments

import (
	"context"
	"fmt"
	"io"

	"mlec/internal/mathx"
	"mlec/internal/placement"
	"mlec/internal/poolsim"
	"mlec/internal/render"
	"mlec/internal/repair"
	"mlec/internal/splitting"
)

// stage1Segments is the splitting granularity of each local pool kind.
var stage1Segments = map[placement.Kind]int{placement.Clustered: 100, placement.Declustered: 240}

// stage1Product is what paperStage1 computes: the four paper layouts and
// the stage-1 estimate of each local placement kind.
type stage1Product struct {
	ls map[placement.Scheme]*placement.Layout
	s1 map[placement.Kind]splitting.Stage1
}

// paperStage1 returns the run's stage 1, computing it if no driver of
// the run has: it builds the four paper layouts and estimates the
// catastrophic-pool behaviour of both local placement kinds (a pool
// behaves the same under either network scheme). Quick mode uses the
// Markov R_ALL view with the analytic lost-stripe fraction; full mode
// runs the poolsim splitting estimator (the paper's stage 1). Only a
// whole estimate is kept for the run's later readers.
func paperStage1(ctx context.Context, r *Run) (map[placement.Scheme]*placement.Layout,
	map[placement.Kind]splitting.Stage1, error) {
	if p := r.stage1; p != nil {
		return p.ls, p.s1, nil
	}
	opts := r.opts
	ls, err := paperLayouts()
	if err != nil {
		return nil, nil, err
	}
	out := map[placement.Kind]splitting.Stage1{}
	for _, kind := range []placement.Kind{placement.Clustered, placement.Declustered} {
		l := ls[placement.Scheme{Network: placement.Clustered, Local: kind}]
		var s1 splitting.Stage1
		var err error
		if n := opts.size().splitTrajectories; n > 0 {
			s1, err = splitting.SplitStage1(ctx, l, stage1Segments[kind], opts.afr(), poolsim.SplitConfig{
				TrajectoriesPerLevel: n, Seed: opts.Seed,
				CheckpointPath: opts.checkpointPath("stage1-" + kind.String()),
			})
		} else {
			s1, err = splitting.MarkovStage1(l, opts.afr())
		}
		if err != nil {
			return nil, nil, err
		}
		if s1.Partial {
			return nil, nil, fmt.Errorf("experiments: stage-1 splitting for %v interrupted (resume with the same checkpoint dir): %w",
				kind, ctx.Err())
		}
		out[kind] = s1
	}
	r.stage1 = &stage1Product{ls, out}
	return ls, out, nil
}

// Fig7Result carries the catastrophic-local-failure probabilities.
type Fig7Result struct {
	// PerScheme maps each MLEC scheme to the annual system-wide
	// probability of at least one catastrophic local pool failure.
	PerScheme map[placement.Scheme]mathx.Prob
}

// Fig7Context estimates the probability of catastrophic local failure
// (§4.1.3). The stage-1 splitting estimator checkpoints under
// opts.CheckpointDir and resumes deterministically.
func Fig7Context(ctx context.Context, opts Options) (*Fig7Result, error) {
	return fig7(ctx, NewRun(opts))
}

// fig7 is Fig7Context on the run's stage 1.
func fig7(ctx context.Context, r *Run) (*Fig7Result, error) {
	ls, s1, err := paperStage1(ctx, r)
	if err != nil {
		return nil, err
	}
	res := &Fig7Result{PerScheme: map[placement.Scheme]mathx.Prob{}}
	for _, s := range placement.AllSchemes {
		rate := mathx.Rate(float64(s1[s.Local].CatRatePerPoolHour) * float64(ls[s].TotalLocalPools()))
		res.PerScheme[s] = rate.AnnualPDL()
	}
	return res, nil
}

// Render prints per-scheme probabilities.
func (r *Fig7Result) Render(w io.Writer) error {
	fmt.Fprintln(w, "Figure 7: probability of catastrophic local failure (per system-year)")
	rows := make([][]string, 0, 4)
	for _, s := range placement.AllSchemes {
		rows = append(rows, []string{s.String(), fmt.Sprintf("%.3g", r.PerScheme[s])})
	}
	return render.Table(w, []string{"scheme", "P(catastrophic local failure)/yr"}, rows)
}

// Fig10Result carries the durability table.
type Fig10Result struct {
	Rows []splitting.Fig10Row
}

// Fig10Context estimates system durability for the four schemes × four
// repair methods (§4.2.3). The stage-1 splitting estimator checkpoints
// under opts.CheckpointDir and resumes deterministically.
func Fig10Context(ctx context.Context, opts Options) (*Fig10Result, error) {
	return fig10(ctx, NewRun(opts))
}

// fig10 is Fig10Context on the run's stage 1.
func fig10(ctx context.Context, r *Run) (*Fig10Result, error) {
	ls, s1, err := paperStage1(ctx, r)
	if err != nil {
		return nil, err
	}
	rows, err := splitting.Fig10(ls, s1)
	if err != nil {
		return nil, err
	}
	return &Fig10Result{Rows: rows}, nil
}

// Render prints durability in nines, matching the Figure 10 bars.
func (r *Fig10Result) Render(w io.Writer) error {
	fmt.Fprintln(w, "Figure 10: durability (nines of annual PDL) by scheme and repair method")
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		cells := []string{row.Scheme.String()}
		for _, m := range repair.AllMethods {
			cells = append(cells, fmt.Sprintf("%.1f", row.Results[int(m)].Nines))
		}
		rows = append(rows, cells)
	}
	return render.Table(w, []string{"scheme", "R_ALL", "R_FCO", "R_HYB", "R_MIN"}, rows)
}
