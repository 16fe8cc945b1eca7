package experiments

import (
	"context"
	"fmt"
	"io"

	"mlec/internal/failure"
	"mlec/internal/mathx"
	"mlec/internal/placement"
	"mlec/internal/render"
	"mlec/internal/repair"
	"mlec/internal/syssim"
)

// SysSimResult carries one full-system simulation per MLEC scheme.
type SysSimResult struct {
	Years  float64
	AFR    mathx.AFR
	Method repair.Method
	Runs   []syssim.Stats // per scheme, in placement.AllSchemes order
}

// SysSimContext runs the full 57,600-disk datacenter simulator for every
// scheme — the paper's headline artifact ("over 50,000 disks") exercised
// end-to-end. At the default 1% AFR it measures fleet failure handling
// and catastrophic-pool incidence; data-loss events need the splitting
// estimator (they are too rare to observe directly, which is the point).
// The four schemes run at once (syssim.RunAllContext). Cancellation or a
// deadline stops every scheme's simulation at its next event boundary
// and the partial runs report the span they actually covered
// (Stats.Partial).
func SysSimContext(ctx context.Context, opts Options) (*SysSimResult, error) {
	years := opts.size().sysYears
	ttf, err := failure.NewExponentialAFR(opts.afr())
	if err != nil {
		return nil, err
	}
	cfgs := make([]syssim.Config, len(placement.AllSchemes))
	for i, s := range placement.AllSchemes {
		cfgs[i] = syssim.Config{
			Topo:            paperTopo(),
			Params:          paperParams(),
			Scheme:          s,
			Method:          repair.RMin,
			SegmentsPerDisk: 60,
			TTF:             ttf,
		}
	}
	runs, err := syssim.RunAllContext(ctx, cfgs, years, opts.Seed)
	if err != nil {
		return nil, err
	}
	return &SysSimResult{Years: years, AFR: opts.afr(), Method: repair.RMin, Runs: runs}, nil
}

// Render prints the per-scheme fleet statistics.
func (r *SysSimResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "Full-system simulation: 57,600 disks, %.0f years, %.1f%% AFR, %v\n",
		r.Years, r.AFR*100, r.Method)
	rows := make([][]string, 0, len(r.Runs))
	for i, st := range r.Runs {
		rows = append(rows, []string{
			placement.AllSchemes[i].String(),
			fmt.Sprintf("%d", st.DiskFailures),
			fmt.Sprintf("%d", st.CatastrophicEvents),
			fmt.Sprintf("%d", st.DataLossEvents),
			render.Bytes(st.CrossRackRepairBytes),
		})
	}
	return render.Table(w, []string{
		"scheme", "disk failures", "catastrophic pools", "data-loss events", "network repair",
	}, rows)
}
