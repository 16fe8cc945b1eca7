package experiments

import (
	"context"
	"crypto/md5"
	"fmt"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// measured are the experiments that print measured codec throughput:
// their renders are pinned with every rate masked.
var measured = []string{"fig11", "fig12", "fig15", "ablation-cores"}

// rateFigure matches a printed GB/s or speedup figure ("%.2f"); the
// renders print every other decimal with one digit after the point.
var rateFigure = regexp.MustCompile(`\d+\.\d\d\b`)

// maskRates replaces each rate figure with "#" and drops the column
// padding around it: runs of spaces become one, trailing spaces go, and
// a header rule's dashes become one.
func maskRates(render string) string {
	lines := strings.Split(rateFigure.ReplaceAllString(render, "#"), "\n")
	for i, line := range lines {
		fields := strings.Fields(line)
		for j, f := range fields {
			if strings.Trim(f, "-") == "" {
				fields[j] = "-"
			}
		}
		lines[i] = strings.Join(fields, " ")
	}
	return strings.Join(lines, "\n")
}

// renderDigest runs one experiment and returns the md5 of its render,
// with the rates masked for a measured experiment.
func renderDigest(t *testing.T, id string, opts Options) string {
	t.Helper()
	var sb strings.Builder
	if err := RunContext(context.Background(), id, opts, &sb); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	out := sb.String()
	if slices.Contains(measured, id) {
		out = maskRates(out)
	}
	return fmt.Sprintf("%x", md5.Sum([]byte(out)))
}

// checkDigests compares got against want key by key and fails on any
// key missing from either side, printing got so a deliberate change can
// be re-pinned in one step.
func checkDigests(t *testing.T, got, want map[string]string) {
	t.Helper()
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	bad := false
	for _, k := range keys {
		if want[k] != got[k] {
			bad = true
			t.Errorf("%s: render md5 %s, pinned %q", k, got[k], want[k])
		}
	}
	for k := range want {
		if _, ok := got[k]; !ok {
			bad = true
			t.Errorf("%s: pinned but not rendered", k)
		}
	}
	if bad {
		var sb strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&sb, "\t%q: %q,\n", k, got[k])
		}
		t.Logf("renders now:\n%s", sb.String())
	}
}

// TestRendersPinned holds the Quick render of every deterministic
// experiment, at two seeds, to the bytes recorded before the driver layer
// was given one stage-1 path, one registration and one size table; the
// heatmaps are pinned in their CSV form too. The burst-derived entries
// (fig5, fig13, fig16, ablation-poolsize) were re-recorded once, when
// the burst layout sampler became rejection-free (DESIGN.md §16). The
// measured experiments' labels, overheads and nines were added with their
// rates masked, recorded before the rates were work-boxed.
func TestRendersPinned(t *testing.T) {
	got := map[string]string{}
	for _, id := range List() {
		for _, seed := range []int64{1, 7} {
			got[fmt.Sprintf("%s/seed%d", id, seed)] = renderDigest(t, id, Options{Quick: true, Seed: seed, AFR: 0.01})
		}
	}
	for _, id := range []string{"fig5", "fig13", "fig16"} {
		got[id+"/csv"] = renderDigest(t, id, Options{Quick: true, Seed: 1, AFR: 0.01, CSV: true})
	}
	// The Markov stage-1 drivers again off the default failure rate.
	for _, id := range []string{"fig7", "fig10", "ablation-detection", "sec514"} {
		got[id+"/afr5"] = renderDigest(t, id, Options{Quick: true, Seed: 1, AFR: 0.05})
	}
	checkDigests(t, got, pinnedQuickRenders)
}

// TestFullRendersPinned holds the paper-scale Figure 7 and Figure 10,
// whose stage 1 is the splitting estimator (Quick mode takes the Markov
// chain), to their recorded renders.
func TestFullRendersPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale splitting campaigns")
	}
	got := map[string]string{}
	for _, id := range []string{"fig7", "fig10"} {
		got[id] = renderDigest(t, id, Options{Seed: 1, AFR: 0.01})
	}
	checkDigests(t, got, pinnedFullRenders)
}

var pinnedQuickRenders = map[string]string{
	"ablation-cores/seed1":       "05032cc37c9649c3b11eca0eb2568bfb",
	"ablation-cores/seed7":       "05032cc37c9649c3b11eca0eb2568bfb",
	"ablation-detection/afr5":    "fbf9581df53a06e2b4802f0fb1f3b471",
	"ablation-detection/seed1":   "968194187928d040e998afbfeb98a830",
	"ablation-detection/seed7":   "968194187928d040e998afbfeb98a830",
	"ablation-poolsize/seed1":    "05c323a5f4482eb37d33aa4377b54ab4",
	"ablation-poolsize/seed7":    "13a9b4aa12cc356ab5062f165b337f55",
	"ablation-stripewidth/seed1": "0705b53b735364b4ec101669e7b3ff1d",
	"ablation-stripewidth/seed7": "0705b53b735364b4ec101669e7b3ff1d",
	"fig1/seed1":                 "252c004bcb24daa6e28bfe84a887981a",
	"fig1/seed7":                 "252c004bcb24daa6e28bfe84a887981a",
	"fig10/afr5":                 "17e191f2a033e703bcf8a695af133ff0",
	"fig10/seed1":                "94e488061341cedb8214e9274af250de",
	"fig10/seed7":                "94e488061341cedb8214e9274af250de",
	"fig11/seed1":                "3c5bcdff7826a2fc5201bb79af2b2859",
	"fig11/seed7":                "3c5bcdff7826a2fc5201bb79af2b2859",
	"fig12/seed1":                "471cb7133ff8e1ba51d44cc111b16bf2",
	"fig12/seed7":                "471cb7133ff8e1ba51d44cc111b16bf2",
	"fig13/csv":                  "cc55ae6a0ec1bd2bc9e337b1db5607ef",
	"fig13/seed1":                "64e02c92f26e19f1a696379cf0066125",
	"fig13/seed7":                "9eebcd116402fd52578213c08ff28d58",
	"fig14/seed1":                "3bda5cbe625acdb9d9cfa5f87aaf2829",
	"fig14/seed7":                "3bda5cbe625acdb9d9cfa5f87aaf2829",
	"fig15/seed1":                "592407bd3e20e738f02e78093d921df2",
	"fig15/seed7":                "592407bd3e20e738f02e78093d921df2",
	"fig16/csv":                  "438786bec273af00e5bf9e5aa4a07d0d",
	"fig16/seed1":                "71a80ea797db4c67654c1715a093653b",
	"fig16/seed7":                "17602929983ef294951c0ed0c23123b2",
	"fig5/csv":                   "59ba8ac0736e6f12680989035c30cfbc",
	"fig5/seed1":                 "de5d81a710fe17536fa0d0a5c8e8bf5c",
	"fig5/seed7":                 "36f2d22a74c89022e05acf601333ef2b",
	"fig6/seed1":                 "e5b6ef165f26ae1743ff0357daf5a916",
	"fig6/seed7":                 "e5b6ef165f26ae1743ff0357daf5a916",
	"fig7/afr5":                  "a062889ebd0283a8172909c4f2f0f23d",
	"fig7/seed1":                 "23fa51995ac32d56947f6f0fffd138d7",
	"fig7/seed7":                 "23fa51995ac32d56947f6f0fffd138d7",
	"fig8/seed1":                 "411bcda5fa44f77bc9745499c3c14e53",
	"fig8/seed7":                 "411bcda5fa44f77bc9745499c3c14e53",
	"fig9/seed1":                 "8a4dd50348df3b35abe76425522bc015",
	"fig9/seed7":                 "8a4dd50348df3b35abe76425522bc015",
	"sec514/afr5":                "9d93faa6f56b7da4742338204b6bb00d",
	"sec514/seed1":               "48f72c315d510ceef5f8a568a21c957e",
	"sec514/seed7":               "48f72c315d510ceef5f8a568a21c957e",
	"sec524/seed1":               "48f72c315d510ceef5f8a568a21c957e",
	"sec524/seed7":               "48f72c315d510ceef5f8a568a21c957e",
	"syssim/seed1":               "0dcc7f720e9126d54e4d9dba373747f5",
	"syssim/seed7":               "1d4c11c4cd3c7ab1132ba88a6367a06a",
	"tab1/seed1":                 "8bcc8836835b7da4b11ca9a7e346026b",
	"tab1/seed7":                 "8bcc8836835b7da4b11ca9a7e346026b",
	"tab2/seed1":                 "e5b6ef165f26ae1743ff0357daf5a916",
	"tab2/seed7":                 "e5b6ef165f26ae1743ff0357daf5a916",
}

var pinnedFullRenders = map[string]string{
	"fig10": "9a87d6b89458a9c77cc779e7c5aa5cdb",
	"fig7":  "1c7f0ee5ef9261e6d6a9519ff8316081",
}

// TestFullHeatmapsPinned holds the paper-scale burst heatmaps, Figures
// 5, 13 and 16 at seed 1, ASCII and CSV, to the renders recorded while
// every panel still ran a campaign of its own: a figure's panels drawing
// one layout stream must not move a bit.
func TestFullHeatmapsPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale heatmaps")
	}
	got := map[string]string{}
	for _, id := range []string{"fig5", "fig13", "fig16"} {
		got[id] = renderDigest(t, id, Options{Seed: 1, AFR: 0.01})
		got[id+"/csv"] = renderDigest(t, id, Options{Seed: 1, AFR: 0.01, CSV: true})
	}
	checkDigests(t, got, pinnedFullHeatmaps)
}

var pinnedFullHeatmaps = map[string]string{
	"fig13":     "dee4a0a4b894ae68f8c8986ae27ec636",
	"fig13/csv": "077750b05af1b3d4582f567b6ec55b3c",
	"fig16":     "b4701467ca6cb69a89df8d633efa14da",
	"fig16/csv": "53806f65eb6ef1bd47910c97233ed00e",
	"fig5":      "f44ac5d38eb5d13976793f5f57be8e8c",
	"fig5/csv":  "bbab567e2a9dc4d7f0956f85476f684e",
}
