// Package render formats experiment output: log-scale ASCII heatmaps
// (the terminal analogue of the paper's PDL figures), aligned tables, and
// byte and hour quantities in human units.
package render

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// HeatmapOpts controls heatmap rendering.
type HeatmapOpts struct {
	// Title is printed above the grid.
	Title string
	// MinExp is the log10 floor: values ≤ 10^MinExp render as the
	// lowest bucket. The paper's figures use −6.
	MinExp float64
	// XLabel and YLabel annotate the axes.
	XLabel, YLabel string
}

// heatChars maps bucket index (cold→hot) to a glyph; NaN renders blank.
var heatChars = []byte(" .:-=+*#%@")

// Heatmap renders a grid of probabilities (rows indexed by ys, columns by
// xs) as a log-scale ASCII heatmap. Values are bucketed between 10^MinExp
// and 1; NaN cells (undefined, e.g. y < x) are blank.
func Heatmap(w io.Writer, xs, ys []int, cells [][]float64, opts HeatmapOpts) error {
	if opts.MinExp >= 0 {
		opts.MinExp = -6
	}
	if len(cells) != len(ys) {
		return fmt.Errorf("render: %d rows for %d ys", len(cells), len(ys))
	}
	if opts.Title != "" {
		if _, err := fmt.Fprintf(w, "%s\n", opts.Title); err != nil {
			return err
		}
	}
	// Rows top-down from the largest y (matching the paper's figures).
	for iy := len(ys) - 1; iy >= 0; iy-- {
		row := cells[iy]
		if len(row) != len(xs) {
			return fmt.Errorf("render: row %d has %d cells for %d xs", iy, len(row), len(xs))
		}
		var b strings.Builder
		fmt.Fprintf(&b, "%4d |", ys[iy])
		for _, v := range row {
			b.WriteByte(glyph(v, opts.MinExp))
		}
		b.WriteByte('\n')
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	// X axis: tick labels every 10 columns.
	var b strings.Builder
	b.WriteString("     +")
	b.WriteString(strings.Repeat("-", len(xs)))
	b.WriteByte('\n')
	axis := make([]byte, len(xs))
	for i := range axis {
		axis[i] = ' '
	}
	for i := 0; i < len(xs); i += 10 {
		s := fmt.Sprintf("%d", xs[i])
		for j := 0; j < len(s) && i+j < len(axis); j++ {
			axis[i+j] = s[j]
		}
	}
	b.WriteString("      ")
	b.Write(axis)
	b.WriteByte('\n')
	if opts.XLabel != "" || opts.YLabel != "" {
		fmt.Fprintf(&b, "      x: %s, y: %s; scale: log10(PDL) in [%g, 0], ' '=undefined\n",
			opts.XLabel, opts.YLabel, opts.MinExp)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func glyph(v, minExp float64) byte {
	if math.IsNaN(v) {
		return heatChars[0]
	}
	if v <= 0 {
		return '0'
	}
	lg := math.Log10(v)
	if lg >= 0 {
		return heatChars[len(heatChars)-1]
	}
	frac := 1 - lg/minExp // 0 at minExp, 1 at 0
	if frac < 0 {
		frac = 0
	}
	idx := 1 + int(frac*float64(len(heatChars)-2))
	if idx >= len(heatChars) {
		idx = len(heatChars) - 1
	}
	return heatChars[idx]
}

// Table renders rows with aligned columns. headers may be nil.
func Table(w io.Writer, headers []string, rows [][]string) error {
	widths := make([]int, 0)
	grow := func(cells []string) {
		for i, c := range cells {
			if i >= len(widths) {
				widths = append(widths, 0)
			}
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if headers != nil {
		grow(headers)
	}
	for _, r := range rows {
		grow(r)
	}
	writeRow := func(cells []string) error {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
		_, err := io.WriteString(w, b.String())
		return err
	}
	if headers != nil {
		if err := writeRow(headers); err != nil {
			return err
		}
		var b strings.Builder
		for i := range headers {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(strings.Repeat("-", widths[i]))
		}
		b.WriteByte('\n')
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	for _, r := range rows {
		if err := writeRow(r); err != nil {
			return err
		}
	}
	return nil
}

// Bytes renders a byte count in human units (decimal, as the paper uses).
func Bytes(v float64) string {
	switch {
	case v >= 1e15:
		return fmt.Sprintf("%.3g PB", v/1e15)
	case v >= 1e12:
		return fmt.Sprintf("%.3g TB", v/1e12)
	case v >= 1e9:
		return fmt.Sprintf("%.3g GB", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.3g MB", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.3g KB", v/1e3)
	default:
		return fmt.Sprintf("%.0f B", v)
	}
}

// Hours renders a duration in hours with sensible units.
func Hours(h float64) string {
	switch {
	case h >= 24*365:
		return fmt.Sprintf("%.3g years", h/(24*365))
	case h >= 48:
		return fmt.Sprintf("%.3g days", h/24)
	case h >= 1:
		return fmt.Sprintf("%.3g h", h)
	default:
		return fmt.Sprintf("%.3g min", h*60)
	}
}
