package experiments

import (
	"fmt"
	"io"

	"mlec/internal/ecdur"
	"mlec/internal/failure"
	"mlec/internal/placement"
	"mlec/internal/render"
	"mlec/internal/repair"
	"mlec/internal/splitting"
	"mlec/internal/throughput"
)

// Fig11Cell is one Figure 11 heatmap entry.
type Fig11Cell struct {
	K, P        int
	BytesPerSec float64
}

// Fig11Result carries the encoding-throughput heatmap.
type Fig11Result struct {
	Cells []Fig11Cell
}

// Fig11 measures single-goroutine RS encoding throughput over the paper's
// (k, p) grid (§5.1.1). Quick mode samples a sub-grid. The codes are
// timed k by k, so the cells the figure's shape compares, one k's p
// values, run next to each other in every round, and a slow stretch of
// the host hits both sides of each comparison.
func Fig11(opts Options) (*Fig11Result, error) {
	sz := opts.size()
	var codes []throughput.Code
	for _, k := range sz.fig11Ks {
		for _, p := range sz.fig11Ps {
			codes = append(codes, throughput.RS(k, p))
		}
	}
	tab, err := throughput.Measure(throughput.DefaultShardBytes, codes...)
	if err != nil {
		return nil, err
	}
	res := &Fig11Result{Cells: make([]Fig11Cell, 0, len(codes))}
	for _, p := range sz.fig11Ps {
		for _, k := range sz.fig11Ks {
			res.Cells = append(res.Cells, Fig11Cell{K: k, P: p, BytesPerSec: tab[throughput.RS(k, p)]})
		}
	}
	return res, nil
}

// Render prints the grid as CSV-like rows (k, p, GB/s).
func (r *Fig11Result) Render(w io.Writer) error {
	fmt.Fprintln(w, "Figure 11: single-core encoding throughput for (k+p) SLEC")
	rows := make([][]string, 0, len(r.Cells))
	for _, c := range r.Cells {
		rows = append(rows, []string{
			fmt.Sprintf("%d", c.K), fmt.Sprintf("%d", c.P),
			fmt.Sprintf("%.2f", c.BytesPerSec/1e9),
		})
	}
	return render.Table(w, []string{"k", "p", "GB/s"}, rows)
}

// TradeoffPoint is one configuration on a durability/throughput scatter.
type TradeoffPoint struct {
	Label       string
	Overhead    float64 // parity share of raw capacity
	Nines       float64
	BytesPerSec float64
}

// Fig12Result carries the MLEC-vs-SLEC tradeoff scatter (both panels).
type Fig12Result struct {
	// PanelA: C/C vs Loc-Cp-S / Net-Cp-S. PanelB: C/D vs Loc-Dp-S /
	// Net-Dp-S. All points sit near 30% parity overhead.
	PanelA, PanelB []TradeoffPoint
}

// mlecConfigs30 lists MLEC parameter pairs with ≈30% parity overhead that
// satisfy the paper topology's divisibility constraints.
var mlecConfigs30 = []placement.Params{
	{KN: 5, PN: 1, KL: 5, PL: 1},
	{KN: 5, PN: 1, KL: 10, PL: 2},
	{KN: 5, PN: 1, KL: 17, PL: 3},
	{KN: 10, PN: 2, KL: 10, PL: 2},
	{KN: 10, PN: 2, KL: 17, PL: 3},
	{KN: 17, PN: 3, KL: 17, PL: 3},
	{KN: 17, PN: 3, KL: 25, PL: 5},
	{KN: 10, PN: 2, KL: 34, PL: 6},
}

// slecConfigs30 lists ≈30%-overhead SLEC codes whose widths divide both
// the enclosure (120) and rack (60) counts.
var slecConfigs30 = []placement.SLECParams{
	{K: 7, P: 3}, {K: 14, P: 6}, {K: 21, P: 9}, {K: 28, P: 12}, {K: 41, P: 19},
}

// mlecTradeoffPoint evaluates one MLEC config: R_MIN durability via the
// splitting composition (Markov stage 1 — the R_ALL-visible rate — with
// the analytic lost-stripe fraction) and encoding throughput from tab.
func mlecTradeoffPoint(params placement.Params, scheme placement.Scheme, opts Options, tab throughput.Table) (TradeoffPoint, error) {
	l, err := placement.NewLayout(paperTopo(), params, scheme)
	if err != nil {
		return TradeoffPoint{}, err
	}
	s1, err := splitting.MarkovStage1(l, opts.afr())
	if err != nil {
		return TradeoffPoint{}, err
	}
	dur, err := splitting.Durability(l, repair.RMin, s1, failure.DefaultDetectionDelayHours)
	if err != nil {
		return TradeoffPoint{}, err
	}
	return TradeoffPoint{
		Label:       fmt.Sprintf("%v %v", scheme, params),
		Overhead:    params.StorageOverhead(),
		Nines:       dur.Nines,
		BytesPerSec: tab.MLEC(params),
	}, nil
}

// slecTradeoffPoint evaluates one SLEC config.
func slecTradeoffPoint(params placement.SLECParams, pl placement.SLECPlacement, opts Options, tab throughput.Table) (TradeoffPoint, error) {
	r, err := ecdur.SLEC(paperTopo(), params, pl, opts.lambda(), failure.DefaultDetectionDelayHours)
	if err != nil {
		return TradeoffPoint{}, err
	}
	return TradeoffPoint{
		Label:       r.Label,
		Overhead:    float64(params.P) / float64(params.Width()),
		Nines:       r.Nines,
		BytesPerSec: tab[throughput.RS(params.K, params.P)],
	}, nil
}

// Fig12 builds the MLEC-vs-SLEC durability/throughput scatter (§5.1.2),
// one panel per local placement: clustered, then declustered.
func Fig12(opts Options) (*Fig12Result, error) { return fig12(NewRun(opts)) }

// fig12 is Fig12 on the run's codec rates.
func fig12(r *Run) (*Fig12Result, error) {
	opts := r.opts
	sz := opts.size()
	codes := throughput.MLECCodes(head(mlecConfigs30, sz.tradeoffs)...)
	for _, p := range head(slecConfigs30, sz.tradeoffs) {
		codes = append(codes, throughput.RS(p.K, p.P))
	}
	tab, err := r.measure(codes...)
	if err != nil {
		return nil, err
	}
	res := &Fig12Result{}
	for _, panel := range []struct {
		pts    *[]TradeoffPoint
		scheme placement.Scheme
		slec   []placement.SLECPlacement
	}{
		{&res.PanelA, placement.SchemeCC, []placement.SLECPlacement{placement.LocalCp, placement.NetworkCp}},
		{&res.PanelB, placement.SchemeCD, []placement.SLECPlacement{placement.LocalDp, placement.NetworkDp}},
	} {
		for _, p := range head(mlecConfigs30, sz.tradeoffs) {
			pt, err := mlecTradeoffPoint(p, panel.scheme, opts, tab)
			if err != nil {
				return nil, err
			}
			*panel.pts = append(*panel.pts, pt)
		}
		for _, p := range head(slecConfigs30, sz.tradeoffs) {
			for _, pl := range panel.slec {
				if _, err := placement.NewSLECLayout(paperTopo(), p, pl); err != nil {
					continue // width doesn't divide this placement's pools
				}
				pt, err := slecTradeoffPoint(p, pl, opts, tab)
				if err != nil {
					return nil, err
				}
				*panel.pts = append(*panel.pts, pt)
			}
		}
	}
	return res, nil
}

// Render prints both panels, 12a before 12b.
func (r *Fig12Result) Render(w io.Writer) error {
	panels := []struct {
		name string
		pts  []TradeoffPoint
	}{
		{"Figure 12a: C/C MLEC vs clustered SLEC", r.PanelA},
		{"Figure 12b: C/D MLEC vs declustered SLEC", r.PanelB},
	}
	for _, p := range panels {
		fmt.Fprintln(w, p.name)
		if err := renderPoints(w, p.pts); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

func renderPoints(w io.Writer, pts []TradeoffPoint) error {
	rows := make([][]string, 0, len(pts))
	for _, p := range pts {
		rows = append(rows, []string{
			p.Label,
			fmt.Sprintf("%.0f%%", p.Overhead*100),
			fmt.Sprintf("%.1f", p.Nines),
			fmt.Sprintf("%.2f GB/s", p.BytesPerSec/1e9),
		})
	}
	return render.Table(w, []string{"config", "overhead", "durability (nines)", "encode throughput"}, rows)
}

// Fig15Result carries the MLEC-vs-LRC tradeoff scatter.
type Fig15Result struct {
	Points []TradeoffPoint
}

// lrcConfigs30 lists ≈30%-overhead LRCs ((l+r)/(k+l+r) ≈ 0.3).
var lrcConfigs30 = []placement.LRCParams{
	{K: 7, L: 1, R: 2},
	{K: 10, L: 2, R: 2},
	{K: 14, L: 2, R: 4},
	{K: 21, L: 3, R: 6},
	{K: 28, L: 4, R: 8},
}

// Fig15 builds the C/D-vs-LRC-Dp durability/throughput scatter (§5.2.2).
func Fig15(opts Options) (*Fig15Result, error) { return fig15(NewRun(opts)) }

// fig15 is Fig15 on the run's codec rates: after Figure 12 in the same
// run, its MLEC points print Figure 12's rates.
func fig15(r *Run) (*Fig15Result, error) {
	opts := r.opts
	sz := opts.size()
	codes := throughput.MLECCodes(head(mlecConfigs30, sz.tradeoffs)...)
	for _, p := range head(lrcConfigs30, sz.tradeoffs) {
		codes = append(codes, throughput.LRC(p.K, p.L, p.R))
	}
	tab, err := r.measure(codes...)
	if err != nil {
		return nil, err
	}
	res := &Fig15Result{}
	for _, p := range head(mlecConfigs30, sz.tradeoffs) {
		pt, err := mlecTradeoffPoint(p, placement.SchemeCD, opts, tab)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, pt)
	}
	for _, p := range head(lrcConfigs30, sz.tradeoffs) {
		r, err := ecdur.LRC(paperTopo(), p, opts.lambda(), failure.DefaultDetectionDelayHours)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, TradeoffPoint{
			Label:       r.Label,
			Overhead:    float64(p.L+p.R) / float64(p.Width()),
			Nines:       r.Nines,
			BytesPerSec: tab[throughput.LRC(p.K, p.L, p.R)],
		})
	}
	return res, nil
}

// Render prints the scatter.
func (r *Fig15Result) Render(w io.Writer) error {
	fmt.Fprintln(w, "Figure 15: C/D MLEC vs LRC-Dp durability/throughput tradeoff")
	return renderPoints(w, r.Points)
}
