package experiments

import (
	"context"
	"crypto/md5"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// timeBoxed are the experiments that measure codec throughput for a
// fixed wall-clock budget: their renders print rates, so no digest can
// hold them.
var timeBoxed = []string{"fig11", "fig12", "fig15", "ablation-cores"}

// renderDigest runs one experiment and returns the md5 of its render.
func renderDigest(t *testing.T, id string, opts Options) string {
	t.Helper()
	var sb strings.Builder
	if err := RunContext(context.Background(), id, opts, &sb); err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	return fmt.Sprintf("%x", md5.Sum([]byte(sb.String())))
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
// heatmaps are pinned in their CSV form too.
func TestRendersPinned(t *testing.T) {
	got := map[string]string{}
	for _, id := range List() {
		if slices.Contains(timeBoxed, id) {
			continue
		}
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
	"ablation-detection/afr5":    "fbf9581df53a06e2b4802f0fb1f3b471",
	"ablation-detection/seed1":   "968194187928d040e998afbfeb98a830",
	"ablation-detection/seed7":   "968194187928d040e998afbfeb98a830",
	"ablation-poolsize/seed1":    "8d86d92e11b5adbd0220b6e6973d4a92",
	"ablation-poolsize/seed7":    "5e5e8ca0185e925b8f051783f75f07b3",
	"ablation-stripewidth/seed1": "0705b53b735364b4ec101669e7b3ff1d",
	"ablation-stripewidth/seed7": "0705b53b735364b4ec101669e7b3ff1d",
	"fig1/seed1":                 "252c004bcb24daa6e28bfe84a887981a",
	"fig1/seed7":                 "252c004bcb24daa6e28bfe84a887981a",
	"fig10/afr5":                 "17e191f2a033e703bcf8a695af133ff0",
	"fig10/seed1":                "94e488061341cedb8214e9274af250de",
	"fig10/seed7":                "94e488061341cedb8214e9274af250de",
	"fig13/csv":                  "20d67b7e270c9edcf8b4a8a0fe1c263c",
	"fig13/seed1":                "f799f4b52087096bc3a11819e5c0a946",
	"fig13/seed7":                "e32187540566143cc301bbd60149dd6f",
	"fig14/seed1":                "3bda5cbe625acdb9d9cfa5f87aaf2829",
	"fig14/seed7":                "3bda5cbe625acdb9d9cfa5f87aaf2829",
	"fig16/csv":                  "241e2fc8722ca771188a0745daa93c97",
	"fig16/seed1":                "55aba6a52e2681bdf34266a6aebd2582",
	"fig16/seed7":                "a98a58a7f3fdf736cdf46be9f279dfcc",
	"fig5/csv":                   "622cd995fc31a8f5de9eeac68334a3d8",
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
