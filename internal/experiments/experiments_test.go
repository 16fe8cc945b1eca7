package experiments

import (
	"bytes"
	"context"
	"io"
	"runtime"
	"slices"
	"strings"
	"testing"

	"mlec/internal/obs"
	"mlec/internal/placement"
	"mlec/internal/repair"
)

func quickOpts() Options { return Options{Quick: true, Seed: 7, AFR: 0.01} }

// TestRegistryComplete: the registry holds exactly the paper's tables and
// figures, the full-system run and the four ablations.
func TestRegistryComplete(t *testing.T) {
	want := []string{
		"fig1", "tab1", "fig5", "fig6", "tab2", "fig7", "fig8", "fig9",
		"fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
		"sec514", "sec524", "syssim",
		"ablation-detection", "ablation-poolsize", "ablation-stripewidth", "ablation-cores",
	}
	have := map[string]bool{}
	for _, id := range List() {
		have[id] = true
		if Describe(id) == "" {
			t.Errorf("experiment %q has no description", id)
		}
		if !slices.Contains(want, id) {
			t.Errorf("experiment %q registered but not expected", id)
		}
	}
	for _, id := range want {
		if !have[id] {
			t.Errorf("experiment %q not registered", id)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if err := RunContext(context.Background(), "nope", quickOpts(), &bytes.Buffer{}); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestFig1(t *testing.T) {
	r := Fig1(quickOpts())
	if len(r.Points) < 4 {
		t.Fatal("dataset too small")
	}
	if r.BackblazeGrowth < 10 {
		t.Errorf("Backblaze growth %.1f, expected ≫10×", r.BackblazeGrowth)
	}
	prevB, prevC := 0.0, 0.0
	for _, p := range r.Points {
		if p.BackblazeDisksK <= prevB || p.MaxCapacityTB <= prevC {
			t.Errorf("series not increasing at %d", p.Year)
		}
		prevB, prevC = p.BackblazeDisksK, p.MaxCapacityTB
	}
	var sb strings.Builder
	if err := r.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "2022") {
		t.Error("render missing 2022 row")
	}
}

func TestTab1(t *testing.T) {
	r, err := Tab1(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Steps) != 4 {
		t.Fatalf("%d steps", len(r.Steps))
	}
	if r.Steps[0].Report.AffectedLocalStripes != 0 {
		t.Error("healthy step reports damage")
	}
	if r.Steps[2].Report.CatastrophicLocalPools != 1 {
		t.Errorf("step 3: %+v", r.Steps[2].Report)
	}
	if r.Steps[3].Report.LostNetworkStripes == 0 {
		t.Errorf("step 4 must lose network stripes: %+v", r.Steps[3].Report)
	}
}

func TestFig5QuickShape(t *testing.T) {
	r, err := Fig5Context(context.Background(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Grids) != 4 {
		t.Fatalf("%d grids", len(r.Grids))
	}
	// D/D must accumulate at least as much PDL mass as C/C (F#7).
	sum := func(s placement.Scheme) float64 {
		total := 0.0
		for _, row := range r.Grids[s].Cells {
			for _, cell := range row {
				if cell.PDL == cell.PDL { // skip NaN
					total += cell.PDL
				}
			}
		}
		return total
	}
	if sum(placement.SchemeDD) < sum(placement.SchemeCC) {
		t.Errorf("F#7: D/D mass %g below C/C %g", sum(placement.SchemeDD), sum(placement.SchemeCC))
	}
	var sb strings.Builder
	if err := r.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if strings.Count(sb.String(), "Figure 5") != 4 {
		t.Error("render missing panels")
	}
}

func TestFig6Tab2(t *testing.T) {
	r, err := Fig6Tab2(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	var sb strings.Builder
	if err := r.Render(&sb); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"C/C", "D/D", "20 TB", "2.4 PB"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("render missing %q:\n%s", want, sb.String())
		}
	}
}

func TestFig7Quick(t *testing.T) {
	r, err := Fig7Context(context.Background(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range placement.AllSchemes {
		p := r.PerScheme[s]
		if p <= 0 || p >= 1 {
			t.Errorf("%v: probability %g out of range", s, p)
		}
	}
	// Local-Dp schemes must beat local-Cp schemes (the Figure 7 story;
	// in quick mode via the Markov view the ordering still holds at
	// system level: fewer, more-slowly-failing pools... verify it).
	if r.PerScheme[placement.SchemeCD] >= r.PerScheme[placement.SchemeCC] {
		t.Logf("note: quick-mode Markov view: C/D %g vs C/C %g",
			r.PerScheme[placement.SchemeCD], r.PerScheme[placement.SchemeCC])
	}
}

func TestFig8Fig9Quick(t *testing.T) {
	r8, err := Fig8(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r8.Rows {
		if !(row.Traffic[int(repair.RAll)] > row.Traffic[int(repair.RMin)]) {
			t.Errorf("%v: R_ALL not above R_MIN", row.Scheme)
		}
	}
	r9, err := Fig9(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range r9.Rows {
		if row.Analyses[int(repair.RAll)].NetworkRepairHours <= 0 {
			t.Errorf("%v: zero R_ALL network time", row.Scheme)
		}
	}
}

func TestFig10Quick(t *testing.T) {
	r, err := Fig10Context(context.Background(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 4 {
		t.Fatalf("%d rows", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Results[int(repair.RMin)].Nines < row.Results[int(repair.RAll)].Nines {
			t.Errorf("%v: R_MIN below R_ALL", row.Scheme)
		}
	}
}

func TestFig11Quick(t *testing.T) {
	r, err := Fig11(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Cells) != 12 {
		t.Fatalf("%d cells", len(r.Cells))
	}
	// p=1 cells must out-run p=10 cells at the same k.
	byKP := map[[2]int]float64{}
	for _, c := range r.Cells {
		byKP[[2]int{c.K, c.P}] = c.BytesPerSec
	}
	if byKP[[2]int{10, 1}] <= byKP[[2]int{10, 10}] {
		t.Error("throughput not decreasing in p")
	}
}

func TestFig12Quick(t *testing.T) {
	r, err := Fig12(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.PanelA) == 0 || len(r.PanelB) == 0 {
		t.Fatal("empty panels")
	}
	for _, p := range append(append([]TradeoffPoint{}, r.PanelA...), r.PanelB...) {
		if p.Overhead < 0.25 || p.Overhead > 0.35 {
			t.Errorf("%s: overhead %.2f outside the ~30%% band", p.Label, p.Overhead)
		}
		if p.Nines <= 0 || p.BytesPerSec <= 0 {
			t.Errorf("%s: degenerate point %+v", p.Label, p)
		}
	}
}

// TestFig12TimesEachCodeOnce: a code's rate does not depend on its
// placement, so within one Fig 12 run a params tuple's C/C point (panel A)
// and C/D point (panel B), and one SLEC code's points on every placement,
// carry the same rate, bit for bit. A label is "<scheme> <code>".
func TestFig12TimesEachCodeOnce(t *testing.T) {
	r, err := Fig12(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	byCode := map[string][]TradeoffPoint{}
	for _, p := range append(append([]TradeoffPoint{}, r.PanelA...), r.PanelB...) {
		_, code, ok := strings.Cut(p.Label, " ")
		if !ok {
			t.Fatalf("label %q names no code", p.Label)
		}
		byCode[code] = append(byCode[code], p)
	}
	if len(byCode) != 6 {
		t.Errorf("%d distinct codes, want 6 (3 MLEC, 3 SLEC)", len(byCode))
	}
	for code, pts := range byCode {
		if len(pts) < 2 {
			t.Errorf("%s: only %d point", code, len(pts))
		}
		for _, p := range pts[1:] {
			if p.BytesPerSec != pts[0].BytesPerSec {
				t.Errorf("%s: %s at %g B/s but %s at %g B/s", code, pts[0].Label, pts[0].BytesPerSec, p.Label, p.BytesPerSec)
			}
		}
	}
}

func TestFig14(t *testing.T) {
	r, err := Fig14(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if !r.RoundTripOK {
		t.Error("LRC local repair failed to restore the chunk")
	}
	if r.LocalRepairReads >= r.GlobalRepairReads {
		t.Error("local repair must read fewer chunks than global")
	}
}

func TestFig15Quick(t *testing.T) {
	r, err := Fig15(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) < 4 {
		t.Fatalf("%d points", len(r.Points))
	}
	for _, p := range r.Points {
		if p.BytesPerSec <= 0 {
			t.Errorf("%s: no measured rate", p.Label)
		}
	}
}

func TestFig16Quick(t *testing.T) {
	r, err := Fig16Context(context.Background(), quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	// Scattered cells (large x) must carry PDL mass; single-rack
	// columns must be zero.
	lastRow := r.Grid.Cells[len(r.Grid.Ys)-1]
	if lastRow[0].PDL != 0 && lastRow[0].PDL == lastRow[0].PDL {
		t.Errorf("single-rack LRC PDL %g, want 0", lastRow[0].PDL)
	}
}

// TestQuickHeatmapsLaunchPerGrid reads the registry's counters across
// quick fig5, fig13 and fig16: their nine grids draw 17,280 trials, and
// each grid, one round of batches, launches at most one pool worker per
// CPU rather than one per batch.
func TestQuickHeatmapsLaunchPerGrid(t *testing.T) {
	const grids, wantTrials = 9, 17280
	launched := obs.Default.Counter("runctl_pool_workers_started_total")
	trials := obs.Default.Counter("burst_pdl_trials_total")
	l0, t0 := launched.Value(), trials.Value()
	for _, id := range []string{"fig5", "fig13", "fig16"} {
		if err := RunContext(context.Background(), id, quickOpts(), io.Discard); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	if got := trials.Value() - t0; got != wantTrials {
		t.Errorf("burst_pdl_trials_total rose by %d, want %d", got, wantTrials)
	}
	if got, limit := launched.Value()-l0, int64(grids*runtime.NumCPU()); got > limit {
		t.Errorf("runctl_pool_workers_started_total rose by %d, want at most %d (one per CPU per grid)", got, limit)
	}
}

func TestSec5Traffic(t *testing.T) {
	r, err := Sec5Traffic(quickOpts())
	if err != nil {
		t.Fatal(err)
	}
	if r.Comparison.MLECYearsPerTB < 1000 {
		t.Errorf("MLEC years/TB %g, want thousands", r.Comparison.MLECYearsPerTB)
	}
	var sb strings.Builder
	if err := r.Render(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "per day") {
		t.Error("render missing daily rows")
	}
}

func TestRunAllQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry sweep")
	}
	for _, id := range List() {
		id := id
		t.Run(id, func(t *testing.T) {
			var sb strings.Builder
			if err := RunContext(context.Background(), id, quickOpts(), &sb); err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if sb.Len() == 0 {
				t.Fatalf("%s produced no output", id)
			}
		})
	}
}

func TestHeatmapCSVMode(t *testing.T) {
	opts := quickOpts()
	opts.CSV = true
	var sb strings.Builder
	if err := RunContext(context.Background(), "fig16", opts, &sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.HasPrefix(out, "# fig16") {
		t.Errorf("CSV output missing label header:\n%s", out[:80])
	}
	if !strings.Contains(out, "racks,failures,pdl") {
		t.Error("CSV header missing")
	}
	// fig16 cells run two concurrent batches in Quick mode; the %g
	// columns show whether the LRC assignment draws followed the
	// scheduler (they did while the evaluator shared one generator).
	var again strings.Builder
	if err := RunContext(context.Background(), "fig16", opts, &again); err != nil {
		t.Fatal(err)
	}
	if again.String() != out {
		t.Errorf("fig16 differs between two runs at one seed:\n%s\n%s", out, again.String())
	}
}
