package experiments

import (
	"context"
	"fmt"
	"io"

	"mlec/internal/failure"
	"mlec/internal/placement"
	"mlec/internal/render"
	"mlec/internal/repair"
	"mlec/internal/syssim"
)

// SysSimResult carries one full-system simulation per MLEC scheme.
type SysSimResult struct {
	Years  float64
	AFR    float64
	Method repair.Method
	Runs   map[placement.Scheme]syssim.Stats
}

// SysSimContext runs the full 57,600-disk datacenter simulator for every
// scheme — the paper's headline artifact ("over 50,000 disks") exercised
// end-to-end. At the default 1% AFR it measures fleet failure handling
// and catastrophic-pool incidence; data-loss events need the splitting
// estimator (they are too rare to observe directly, which is the point).
// Cancellation or a deadline stops each scheme's simulation at the next
// event boundary and the partial runs report the span they actually
// covered (Stats.Partial).
func SysSimContext(ctx context.Context, opts Options) (*SysSimResult, error) {
	years := opts.size().sysYears
	ttf, err := failure.NewExponentialAFR(opts.afr())
	if err != nil {
		return nil, err
	}
	res := &SysSimResult{
		Years: years, AFR: opts.afr(), Method: repair.RMin,
		Runs: map[placement.Scheme]syssim.Stats{},
	}
	for _, s := range placement.AllSchemes {
		cfg := syssim.Config{
			Topo:            paperTopo(),
			Params:          paperParams(),
			Scheme:          s,
			Method:          repair.RMin,
			SegmentsPerDisk: 60,
			TTF:             ttf,
		}
		stats, err := syssim.RunContext(ctx, cfg, years, opts.Seed)
		if err != nil {
			return nil, err
		}
		res.Runs[s] = stats
	}
	return res, nil
}

// Render prints the per-scheme fleet statistics.
func (r *SysSimResult) Render(w io.Writer) error {
	fmt.Fprintf(w, "Full-system simulation: 57,600 disks, %.0f years, %.1f%% AFR, %v\n",
		r.Years, r.AFR*100, r.Method)
	rows := make([][]string, 0, len(r.Runs))
	for _, s := range placement.AllSchemes {
		st := r.Runs[s]
		rows = append(rows, []string{
			s.String(),
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
