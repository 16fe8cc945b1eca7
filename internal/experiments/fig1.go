package experiments

import (
	"fmt"
	"io"

	"mlec/internal/render"
)

// ScalingPoint is one year of the Figure 1 storage-scaling series.
type ScalingPoint struct {
	Year int
	// BackblazeDisksK and DOEDisksK are managed-disk counts in
	// thousands (panel a).
	BackblazeDisksK float64
	DOEDisksK       float64
	// MaxCapacityTB and AvgSoldTB are per-disk capacities (panel b).
	MaxCapacityTB float64
	AvgSoldTB     float64
}

// Fig1Dataset is the storage-scaling series digitized from the paper's
// Figure 1 (Backblaze fleet reports and US DOE laboratory systems; the
// annotated values 20/44/103/202 and 1.0/2.0/3.5 appear verbatim in the
// figure).
var Fig1Dataset = []ScalingPoint{
	{Year: 2010, BackblazeDisksK: 5, DOEDisksK: 5, MaxCapacityTB: 3, AvgSoldTB: 1.2},
	{Year: 2013, BackblazeDisksK: 20, DOEDisksK: 10, MaxCapacityTB: 6, AvgSoldTB: 2.2},
	{Year: 2016, BackblazeDisksK: 44, DOEDisksK: 20, MaxCapacityTB: 10, AvgSoldTB: 4.4},
	{Year: 2019, BackblazeDisksK: 103, DOEDisksK: 28, MaxCapacityTB: 16, AvgSoldTB: 8.0},
	{Year: 2022, BackblazeDisksK: 202, DOEDisksK: 35, MaxCapacityTB: 20, AvgSoldTB: 12.3},
}

// Fig1Result carries the series plus derived growth factors.
type Fig1Result struct {
	Points []ScalingPoint
	// BackblazeGrowth and CapacityGrowth are first→last multipliers —
	// the "scale keeps growing" motivation of §1.
	BackblazeGrowth float64
	CapacityGrowth  float64
}

// Fig1 returns the storage-scaling dataset.
func Fig1(_ Options) *Fig1Result {
	first, last := Fig1Dataset[0], Fig1Dataset[len(Fig1Dataset)-1]
	return &Fig1Result{
		Points:          Fig1Dataset,
		BackblazeGrowth: last.BackblazeDisksK / first.BackblazeDisksK,
		CapacityGrowth:  last.MaxCapacityTB / first.MaxCapacityTB,
	}
}

// Render writes the two panels as a table.
func (r *Fig1Result) Render(w io.Writer) error {
	fmt.Fprintln(w, "Figure 1: storage scaling over the years")
	rows := make([][]string, 0, len(r.Points))
	for _, p := range r.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Year),
			fmt.Sprintf("%.0f", p.BackblazeDisksK),
			fmt.Sprintf("%.1f", p.DOEDisksK),
			fmt.Sprintf("%.0f", p.MaxCapacityTB),
			fmt.Sprintf("%.1f", p.AvgSoldTB),
		})
	}
	if err := render.Table(w, []string{"year", "backblaze (K disks)", "US DOE (K disks)", "max TB/disk", "avg sold TB/disk"}, rows); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "growth 2010→2022: %.0f× disks (Backblaze), %.1f× max capacity\n",
		r.BackblazeGrowth, r.CapacityGrowth)
	return err
}
