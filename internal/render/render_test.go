package render

import (
	"math"
	"strings"
	"testing"
)

func TestHeatmapBasic(t *testing.T) {
	var sb strings.Builder
	xs := []int{1, 2, 3}
	ys := []int{10, 20}
	cells := [][]float64{
		{1e-6, 1e-3, 1},          // y=10
		{math.NaN(), 1e-1, 1e-2}, // y=20
	}
	err := Heatmap(&sb, xs, ys, cells, HeatmapOpts{
		Title: "test", MinExp: -6, XLabel: "racks", YLabel: "failures",
	})
	if err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "test") {
		t.Error("title missing")
	}
	// y=20 row rendered first (top-down).
	lines := strings.Split(out, "\n")
	if !strings.HasPrefix(lines[1], "  20 |") {
		t.Errorf("first data row %q, want y=20", lines[1])
	}
	if !strings.HasPrefix(lines[2], "  10 |") {
		t.Errorf("second data row %q, want y=10", lines[2])
	}
	// PDL=1 renders the hottest glyph.
	if !strings.ContainsRune(lines[2], '@') {
		t.Errorf("hot cell missing in %q", lines[2])
	}
}

func TestHeatmapGlyphs(t *testing.T) {
	if g := glyph(math.NaN(), -6); g != ' ' {
		t.Errorf("NaN glyph %q", g)
	}
	if g := glyph(0, -6); g != '0' {
		t.Errorf("zero glyph %q", g)
	}
	if g := glyph(1, -6); g != '@' {
		t.Errorf("one glyph %q", g)
	}
	// Monotone: hotter values get later glyphs.
	prev := -1
	for _, v := range []float64{1e-7, 1e-5, 1e-3, 1e-1, 1} {
		idx := strings.IndexByte(string(heatChars), glyph(v, -6))
		if idx < prev {
			t.Errorf("glyph ordering broken at %g", v)
		}
		prev = idx
	}
}

func TestHeatmapShapeErrors(t *testing.T) {
	var sb strings.Builder
	if err := Heatmap(&sb, []int{1}, []int{1, 2}, [][]float64{{1}}, HeatmapOpts{}); err == nil {
		t.Error("row count mismatch accepted")
	}
	if err := Heatmap(&sb, []int{1, 2}, []int{1}, [][]float64{{1}}, HeatmapOpts{}); err == nil {
		t.Error("column count mismatch accepted")
	}
}

func TestTable(t *testing.T) {
	var sb strings.Builder
	err := Table(&sb, []string{"a", "long-header"}, [][]string{
		{"x", "1"},
		{"longer-cell", "2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(sb.String(), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("%d lines", len(lines))
	}
	// All rows align: same column start for the second column.
	idx := strings.Index(lines[0], "long-header")
	if strings.Index(lines[2], "1") != idx {
		t.Errorf("columns misaligned:\n%s", sb.String())
	}
}

func TestBytes(t *testing.T) {
	cases := map[float64]string{
		5:       "5 B",
		2e3:     "2 KB",
		3.5e6:   "3.5 MB",
		4e9:     "4 GB",
		4.4e12:  "4.4 TB",
		2.64e16: "26.4 PB",
	}
	for v, want := range cases {
		if got := Bytes(v); got != want {
			t.Errorf("Bytes(%g) = %q, want %q", v, got, want)
		}
	}
}

func TestHours(t *testing.T) {
	cases := map[float64]string{
		0.5:   "30 min",
		3:     "3 h",
		72:    "3 days",
		8760:  "1 years",
		87600: "10 years",
	}
	for v, want := range cases {
		if got := Hours(v); got != want {
			t.Errorf("Hours(%g) = %q, want %q", v, got, want)
		}
	}
}
