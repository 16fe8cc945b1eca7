package experiments

import (
	"fmt"
	"io"

	"mlec/internal/bwmodel"
	"mlec/internal/placement"
	"mlec/internal/render"
	"mlec/internal/repair"
)

// Fig6Tab2Result carries the repair-size/bandwidth/time rows shared by
// Table 2 and Figure 6.
type Fig6Tab2Result struct {
	Rows []bwmodel.Row
}

// Fig6Tab2 evaluates single-disk and catastrophic-pool repair for the
// four MLEC schemes (§4.1.2).
func Fig6Tab2(_ Options) (*Fig6Tab2Result, error) {
	rows, err := bwmodel.Table2(paperTopo(), paperParams())
	if err != nil {
		return nil, err
	}
	return &Fig6Tab2Result{Rows: rows}, nil
}

// Render prints Table 2 with the Figure 6 repair times appended.
func (r *Fig6Tab2Result) Render(w io.Writer) error {
	fmt.Fprintln(w, "Table 2 + Figure 6: repair size, available repair bandwidth, repair time")
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Scheme.String(),
			render.Bytes(row.DiskRepairBytes),
			fmt.Sprintf("%.0f MB/s", row.DiskRepairBW/1e6),
			render.Hours(row.DiskRepairHours),
			render.Bytes(row.PoolRepairBytes),
			fmt.Sprintf("%.0f MB/s", row.PoolRepairBW/1e6),
			render.Hours(row.PoolRepairHours),
		})
	}
	return render.Table(w, []string{
		"scheme", "disk size", "disk repair BW", "disk repair time",
		"pool size", "pool repair BW", "pool repair time (R_ALL)",
	}, rows)
}

// Fig8Row is one scheme's cross-rack traffic under the four methods.
type Fig8Row struct {
	Scheme  placement.Scheme
	Traffic [4]float64 // bytes, indexed by repair.Method
}

// Fig8Result carries Figure 8.
type Fig8Result struct{ Rows []Fig8Row }

// Fig8 quantifies cross-rack repair traffic of the four repair methods on
// a catastrophic local pool failure (§4.2.1): the traffic column of
// Figure 9's sweep.
func Fig8(opts Options) (*Fig8Result, error) {
	sweep, err := Fig9(opts)
	if err != nil {
		return nil, err
	}
	res := &Fig8Result{}
	for _, r := range sweep.Rows {
		row := Fig8Row{Scheme: r.Scheme}
		for m, a := range r.Analyses {
			row.Traffic[m] = a.CrossRackTrafficBytes
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render prints the Figure 8 bars as a table.
func (r *Fig8Result) Render(w io.Writer) error {
	fmt.Fprintln(w, "Figure 8: cross-rack repair traffic of one catastrophic local pool failure")
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		cells := []string{row.Scheme.String()}
		for _, m := range repair.AllMethods {
			cells = append(cells, render.Bytes(row.Traffic[int(m)]))
		}
		rows = append(rows, cells)
	}
	return render.Table(w, []string{"scheme", "R_ALL", "R_FCO", "R_HYB", "R_MIN"}, rows)
}

// Fig9Row is one scheme's repair-time breakdown under the four methods.
type Fig9Row struct {
	Scheme   placement.Scheme
	Analyses [4]repair.Analysis
}

// Fig9Result carries Figure 9.
type Fig9Result struct{ Rows []Fig9Row }

// Fig9 measures network-level and local repair time per method (§4.2.2)
// by analyzing one catastrophic local pool failure under every scheme and
// repair method: the sweep Figure 8 reads too.
func Fig9(_ Options) (*Fig9Result, error) {
	ls, err := paperLayouts()
	if err != nil {
		return nil, err
	}
	res := &Fig9Result{}
	for _, s := range placement.AllSchemes {
		an := repair.NewAnalyzer(ls[s])
		row := Fig9Row{Scheme: s}
		for _, m := range repair.AllMethods {
			a, err := an.AnalyzeBurst(m)
			if err != nil {
				return nil, err
			}
			row.Analyses[int(m)] = a
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render prints network (-N) and local (-L) repair hours per method.
func (r *Fig9Result) Render(w io.Writer) error {
	fmt.Fprintln(w, "Figure 9: repair time of one catastrophic local pool failure")
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		cells := []string{row.Scheme.String()}
		for _, m := range repair.AllMethods {
			a := row.Analyses[int(m)]
			cells = append(cells, fmt.Sprintf("%s + %s local",
				render.Hours(a.NetworkRepairHours), render.Hours(a.LocalRepairHours)))
		}
		rows = append(rows, cells)
	}
	return render.Table(w, []string{"scheme", "R_ALL (net+local)", "R_FCO", "R_HYB", "R_MIN"}, rows)
}
