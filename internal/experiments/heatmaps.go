package experiments

import (
	"context"
	"fmt"
	"io"
	"math"

	"mlec/internal/burst"
	"mlec/internal/placement"
	"mlec/internal/render"
)

// panel is one PDL heatmap of a figure: its ASCII title, its CSV label.
type panel struct {
	title, label string
	g            *burst.Grid
}

// renderPanels prints a figure's heatmaps: as CSV, each under a "# label"
// line, when csv is set; otherwise as ASCII art, a figure of several
// panels ending each with a blank line.
func renderPanels(w io.Writer, csv bool, panels ...panel) error {
	for _, p := range panels {
		if csv {
			if _, err := fmt.Fprintf(w, "# %s\n", p.label); err != nil {
				return err
			}
			if err := p.g.WriteCSV(w); err != nil {
				return err
			}
			continue
		}
		if err := renderGrid(w, p.title, p.g); err != nil {
			return err
		}
		if len(panels) > 1 {
			fmt.Fprintln(w)
		}
	}
	return nil
}

// heatmap runs one PDL grid at the size table's axes and trials,
// checkpointed under the campaign name.
func heatmap(ctx context.Context, opts Options, ev burst.Evaluator, name string) (*burst.Grid, error) {
	sz := opts.size()
	return burst.HeatmapContext(ctx, ev, sz.heatXs, sz.heatYs, sz.heatTrials, opts.Seed, opts.checkpointPath(name))
}

func renderGrid(w io.Writer, title string, g *burst.Grid) error {
	cells := make([][]float64, len(g.Ys))
	for iy := range g.Ys {
		cells[iy] = make([]float64, len(g.Xs))
		for ix := range g.Xs {
			cells[iy][ix] = g.Cells[iy][ix].PDL
			if g.Cells[iy][ix].Trials == 0 {
				cells[iy][ix] = math.NaN()
			}
		}
	}
	return render.Heatmap(w, g.Xs, g.Ys, cells, render.HeatmapOpts{
		Title: title, MinExp: -6, XLabel: "affected racks", YLabel: "failed disks",
	})
}

// Fig5Result holds the four MLEC PDL heatmaps.
type Fig5Result struct {
	Grids map[placement.Scheme]*burst.Grid
	csv   bool
}

// Fig5Context evaluates PDL under correlated failure bursts for the four
// MLEC schemes (§4.1.1), checkpointing each scheme's grid separately
// under opts.CheckpointDir.
func Fig5Context(ctx context.Context, opts Options) (*Fig5Result, error) {
	ls, err := paperLayouts()
	if err != nil {
		return nil, err
	}
	res := &Fig5Result{Grids: map[placement.Scheme]*burst.Grid{}, csv: opts.CSV}
	for _, s := range placement.AllSchemes {
		g, err := heatmap(ctx, opts, burst.NewMLECEvaluator(ls[s]), "fig5-"+s.String())
		if err != nil {
			return nil, err
		}
		res.Grids[s] = g
	}
	return res, nil
}

// Render prints the four heatmaps in the paper's order.
func (r *Fig5Result) Render(w io.Writer) error {
	panels := make([]panel, 0, len(placement.AllSchemes))
	for _, s := range placement.AllSchemes {
		panels = append(panels, panel{fmt.Sprintf("Figure 5 (%v): MLEC PDL under correlated bursts", s),
			"fig5 " + s.String(), r.Grids[s]})
	}
	return renderPanels(w, r.csv, panels...)
}

// Fig13Result holds the four SLEC PDL heatmaps.
type Fig13Result struct {
	Params placement.SLECParams
	Grids  map[placement.SLECPlacement]*burst.Grid
	csv    bool
}

// Fig13Context evaluates burst PDL for the four SLEC placements with the
// paper's (7+3) code (§5.1.3), checkpointing each placement's grid
// separately under opts.CheckpointDir.
func Fig13Context(ctx context.Context, opts Options) (*Fig13Result, error) {
	params := placement.SLECParams{K: 7, P: 3}
	res := &Fig13Result{Params: params, Grids: map[placement.SLECPlacement]*burst.Grid{}, csv: opts.CSV}
	for _, pl := range placement.AllSLECPlacements {
		l, err := placement.NewSLECLayout(paperTopo(), params, pl)
		if err != nil {
			return nil, err
		}
		g, err := heatmap(ctx, opts, burst.NewSLECEvaluator(l), "fig13-"+pl.String())
		if err != nil {
			return nil, err
		}
		res.Grids[pl] = g
	}
	return res, nil
}

// Render prints the four heatmaps in the paper's order.
func (r *Fig13Result) Render(w io.Writer) error {
	panels := make([]panel, 0, len(placement.AllSLECPlacements))
	for _, pl := range placement.AllSLECPlacements {
		panels = append(panels, panel{fmt.Sprintf("Figure 13 (%v %v): SLEC PDL under correlated bursts", pl, r.Params),
			"fig13 " + pl.String(), r.Grids[pl]})
	}
	return renderPanels(w, r.csv, panels...)
}

// Fig16Result holds the LRC-Dp PDL heatmap.
type Fig16Result struct {
	Params placement.LRCParams
	Grid   *burst.Grid
	csv    bool
}

// Fig16Context evaluates burst PDL for the paper's (14,2,4) LRC-Dp
// (§5.2.3).
func Fig16Context(ctx context.Context, opts Options) (*Fig16Result, error) {
	params := placement.LRCParams{K: 14, L: 2, R: 4}
	l, err := placement.NewLRCLayout(paperTopo(), params)
	if err != nil {
		return nil, err
	}
	g, err := heatmap(ctx, opts, burst.NewLRCEvaluator(l, opts.Seed), "fig16")
	if err != nil {
		return nil, err
	}
	return &Fig16Result{Params: params, Grid: g, csv: opts.CSV}, nil
}

// Render prints the heatmap.
func (r *Fig16Result) Render(w io.Writer) error {
	return renderPanels(w, r.csv, panel{fmt.Sprintf("Figure 16 (LRC-Dp %v): PDL under correlated bursts", r.Params),
		"fig16 LRC-Dp", r.Grid})
}
