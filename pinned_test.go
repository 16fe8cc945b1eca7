package mlec

import (
	"context"
	"crypto/md5"
	"fmt"
	"math"
	"strings"
	"testing"
)

// estimateBits formats every field of the estimates, floats as their
// bits, so a digest of it moves with any bit of any field.
func estimateBits(ests []DurabilityEstimate) string {
	var sb strings.Builder
	for _, e := range ests {
		fmt.Fprintf(&sb, "%v %x %x %x %x %x %x %v\n", e.Method,
			math.Float64bits(e.CatRatePerPoolHour), math.Float64bits(e.WindowHours),
			math.Float64bits(e.AnnualPDL), math.Float64bits(e.Nines),
			math.Float64bits(e.AnnualPDLLo), math.Float64bits(e.AnnualPDLHi), e.Partial)
	}
	return sb.String()
}

// TestEstimateDurabilityPinned holds EstimateDurability to the bits it
// gave before stage 1 had one path from a layout: every field of every
// method's estimate, for the four schemes, on the Markov route (at the
// default and at a 10 % AFR) and on the splitting route, run to the end
// at both rates (at 1 % a declustered pool samples no catastrophe) and
// cancelled before its first level.
func TestEstimateDurabilityPinned(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	routes := []struct {
		name string
		ctx  context.Context
		opts DurabilityOptions
	}{
		{"markov", context.Background(), DurabilityOptions{}},
		{"markov-afr10", context.Background(), DurabilityOptions{AFR: 0.1}},
		{"split", context.Background(), DurabilityOptions{UseSimulation: true, Trajectories: 1000, Seed: 3}},
		{"split-afr10", context.Background(), DurabilityOptions{AFR: 0.1, UseSimulation: true, Trajectories: 1000, Seed: 3}},
		{"split-cancelled", cancelled, DurabilityOptions{UseSimulation: true, Trajectories: 1000, Seed: 3}},
	}
	got := map[string]string{}
	var all strings.Builder
	for _, r := range routes {
		for _, s := range AllSchemes {
			ests, err := EstimateDurabilityContext(r.ctx, DefaultTopology(), DefaultParams(), s, r.opts)
			if err != nil {
				t.Fatalf("%s %v: %v", r.name, s, err)
			}
			bits := estimateBits(ests)
			key := r.name + " " + s.String()
			got[key] = fmt.Sprintf("%x", md5.Sum([]byte(bits)))
			fmt.Fprintf(&all, "\t%q: %q,\n", key, got[key])
			if got[key] != pinnedEstimates[key] {
				t.Errorf("%s: estimates moved:\n%s", key, bits)
			}
		}
	}
	if t.Failed() {
		t.Logf("estimates now:\n%s", all.String())
	}
}

var pinnedEstimates = map[string]string{
	"markov C/C":          "f9602746ce537271e0eb7b8e9f78a5e8",
	"markov C/D":          "a171769d613cbef6a7f4b3fabb7314fd",
	"markov D/C":          "ecb7858180219d455d936a1877194d83",
	"markov D/D":          "5fc24a3c7f4ed36e5d54836c4cecc969",
	"markov-afr10 C/C":    "b50e5518bef2c173be576ee976321d52",
	"markov-afr10 C/D":    "3ebc8c3b1cbbc3a6922b4a7a723e3ec6",
	"markov-afr10 D/C":    "8a4b51b3b649343e057ef1accb7b8d2f",
	"markov-afr10 D/D":    "34105315f40b42a182e4456eca3cb5ab",
	"split C/C":           "16295f52fb7ee8f4d69d79a8fd8d1ce9",
	"split C/D":           "c6c4149e4171239221b6e2e4b5afccee",
	"split D/C":           "def63843d7fa599afd9957275a371a27",
	"split D/D":           "3bf587ca14a55f79eaca1d8885109877",
	"split-afr10 C/C":     "5bc39b40390bdd240ac0b05b1be65230",
	"split-afr10 C/D":     "f879b97613ec5e4ed9b064d541a88d6d",
	"split-afr10 D/C":     "14f650d49eccf56fb638b6ed948b6f75",
	"split-afr10 D/D":     "2ed21d3a813802d94db53e194d8372fa",
	"split-cancelled C/C": "d950249b677ad33b012b6868f55348db",
	"split-cancelled C/D": "086c64d809b67db980eac1d8d0fc5415",
	"split-cancelled D/C": "284cc586eb409572e3285921c87a090b",
	"split-cancelled D/D": "18318defd7853f01a465a36191c2e8cf",
}
