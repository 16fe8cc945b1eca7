package burst

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"mlec/internal/placement"
	"mlec/internal/topology"
)

// checkLayout fails t unless b is a layout of x distinct racks below
// totalRacks, ascending, whose y failed disks are distinct, below dpr
// and cover every rack.
func checkLayout(t testing.TB, b *BurstLayout, totalRacks, dpr, x, y int) {
	t.Helper()
	if len(b.Racks) != x || len(b.FailedDisks) != x || b.TotalFailures() != y {
		t.Fatalf("racks=%d dpr=%d x=%d y=%d: layout has %d racks, %d failure lists, %d failures",
			totalRacks, dpr, x, y, len(b.Racks), len(b.FailedDisks), b.TotalFailures())
	}
	for i, r := range b.Racks {
		if r < 0 || r >= totalRacks || (i > 0 && r <= b.Racks[i-1]) {
			t.Fatalf("racks %v: not distinct ascending ids below %d", b.Racks, totalRacks)
		}
		if len(b.FailedDisks[i]) == 0 {
			t.Fatalf("rack %d of %v has no failure", r, b.Racks)
		}
		disks := slices.Clone(b.FailedDisks[i])
		slices.Sort(disks)
		for j, d := range disks {
			if d < 0 || d >= dpr || (j > 0 && d == disks[j-1]) {
				t.Fatalf("rack %d: failed disks %v not distinct below %d", r, b.FailedDisks[i], dpr)
			}
		}
	}
}

// FuzzSampleLayout: any arguments give an error exactly when the cell is
// impossible, and otherwise a well-formed covering layout — from one
// sampler reused across inputs, so stale scratch would show.
func FuzzSampleLayout(f *testing.F) {
	f.Add(uint8(60), uint16(960), uint8(41), uint16(60), int64(1))
	f.Add(uint8(100), uint16(3), uint8(100), uint16(100), int64(2))
	f.Add(uint8(70), uint16(40), uint8(65), uint16(2100), int64(3))
	f.Add(uint8(2), uint16(3), uint8(2), uint16(7), int64(4))
	s := new(layoutSampler)
	f.Fuzz(func(t *testing.T, totalRacks uint8, dpr16 uint16, x8 uint8, y16 uint16, seed int64) {
		racks, dpr, x, y := int(totalRacks), int(dpr16%1024), int(x8), int(y16%4096)
		rng := rand.New(rand.NewSource(seed))
		valid := x >= 1 && x <= racks && y >= x && y <= x*dpr
		for trial := 0; trial < 3; trial++ {
			b, err := s.sample(rng, racks, dpr, x, y)
			if (err == nil) != valid {
				t.Fatalf("racks=%d dpr=%d x=%d y=%d: error %v, valid %v", racks, dpr, x, y, err, valid)
			}
			if err != nil {
				return
			}
			checkLayout(t, b, racks, dpr, x, y)
		}
	})
}

// layoutKey names a layout independently of the order of its disks.
func layoutKey(b *BurstLayout) string {
	var sb strings.Builder
	for i, r := range b.Racks {
		disks := slices.Clone(b.FailedDisks[i])
		slices.Sort(disks)
		fmt.Fprintf(&sb, "%d%v;", r, disks)
	}
	return sb.String()
}

// coveringLayouts enumerates every layout of the cell: each x-subset of
// the racks with each y-subset of its x·dpr disks that leaves no rack
// without a failure.
func coveringLayouts(totalRacks, dpr, x, y int) map[string]bool {
	all := map[string]bool{}
	var racks []int
	var pickRacks func(next int)
	pickRacks = func(next int) {
		if len(racks) == x {
			n := x * dpr
			for mask := 0; mask < 1<<n; mask++ {
				if popcount(mask) != y {
					continue
				}
				b := &BurstLayout{Racks: racks, FailedDisks: make([][]int, x)}
				for d := 0; d < n; d++ {
					if mask&(1<<d) != 0 {
						b.FailedDisks[d/dpr] = append(b.FailedDisks[d/dpr], d%dpr)
					}
				}
				if !slices.ContainsFunc(b.FailedDisks, func(d []int) bool { return len(d) == 0 }) {
					all[layoutKey(b)] = true
				}
			}
			return
		}
		for r := next; r < totalRacks; r++ {
			racks = append(racks, r)
			pickRacks(r + 1)
			racks = racks[:len(racks)-1]
		}
	}
	pickRacks(0)
	return all
}

func popcount(v int) int {
	n := 0
	for ; v != 0; v &= v - 1 {
		n++
	}
	return n
}

// TestSampleLayoutUniformOverCoverings enumerates every covering layout
// of tiny cells, from one failure per rack (y = x) to every disk failed
// (y = x·dpr), and holds the sampler's frequencies to uniform by a
// chi-square test at the 10⁻⁴ level.
func TestSampleLayoutUniformOverCoverings(t *testing.T) {
	for _, c := range []struct{ racks, dpr, x, y int }{
		{3, 3, 2, 2}, // y = x
		{3, 2, 2, 4}, // y = x·dpr
		{4, 3, 2, 3},
		{2, 4, 2, 5},
		{3, 3, 3, 5},
		{1, 6, 1, 3},
	} {
		want := coveringLayouts(c.racks, c.dpr, c.x, c.y)
		const perLayout = 200
		n := perLayout * len(want)
		seen := map[string]int{}
		rng := rand.New(rand.NewSource(int64(len(want))))
		s := new(layoutSampler)
		for range n {
			b, err := s.sample(rng, c.racks, c.dpr, c.x, c.y)
			if err != nil {
				t.Fatal(err)
			}
			k := layoutKey(b)
			if !want[k] {
				t.Fatalf("%+v: sampled %s, not a covering layout", c, k)
			}
			seen[k]++
		}
		chi2 := 0.0
		for k := range want {
			d := float64(seen[k]) - perLayout
			chi2 += d * d / perLayout
		}
		// Wilson–Hilferty: the 1 − 10⁻⁴ quantile of chi-square with df
		// degrees of freedom.
		df := float64(len(want) - 1)
		crit := math.Inf(1)
		if df > 0 {
			crit = df * math.Pow(1-2/(9*df)+3.719*math.Sqrt(2/(9*df)), 3)
		}
		t.Logf("%+v: chi² = %.1f over %d layouts (critical %.1f)", c, chi2, len(want), crit)
		if chi2 > crit {
			t.Errorf("%+v: chi² = %.1f over %d layouts, above %.1f", c, chi2, len(want), crit)
		}
	}
}

// TestSampleLayoutThreeFailureRackShare: at dpr 10, x 10, y 12 a layout
// has either one rack with 3 failures (10·C(10,3)·10⁹ layouts of given
// racks) or two racks with 2 (C(10,2)·C(10,2)²·10⁸ = 45³·10⁸). A sampler
// that weights layouts by anything but 1 moves the share of the first
// kind; the rejection sampler, through its constructive fallback, drew
// 0.1035 here.
func TestSampleLayoutThreeFailureRackShare(t *testing.T) {
	one3 := 10 * 120 * 1e9
	want := one3 / (one3 + 45*45*45*1e8)
	const n = 100_000
	rng := rand.New(rand.NewSource(12))
	s := new(layoutSampler)
	hits := 0
	for range n {
		b, err := s.sample(rng, 10, 10, 10, 12)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range b.FailedDisks {
			if len(d) == 3 {
				hits++
				break
			}
		}
	}
	got, se := float64(hits)/n, math.Sqrt(want*(1-want)/n)
	t.Logf("share %.4f, exact %.4f", got, want)
	if math.Abs(got-want) > 4*se {
		t.Errorf("share of layouts with a 3-failure rack %.4f, exact %.4f ± %.4f", got, want, 4*se)
	}
}

// TestSamplerSteadyStateAllocs: once its scratch has grown, a sampler
// allocates nothing per trial, across scattered, localized, y = x,
// x = totalRacks and y > 2000 cells; the layouts of the last are
// well formed and evaluate to a finite PDL.
func TestSamplerSteadyStateAllocs(t *testing.T) {
	ev := NewMLECEvaluator(placement.MustNewLayout(topology.Default(), placement.DefaultParams(), placement.SchemeDD))
	s := new(layoutSampler)
	rng := rand.New(rand.NewSource(1))
	for _, c := range []struct{ x, y int }{{41, 60}, {3, 28}, {50, 50}, {60, 60}, {41, 2100}, {60, 2500}, {60, 57600}} {
		var b *BurstLayout
		trial := func() {
			var err error
			if b, err = s.sample(rng, 60, 960, c.x, c.y); err != nil {
				t.Fatal(err)
			}
		}
		trial()
		if n := testing.AllocsPerRun(20, trial); n != 0 {
			t.Errorf("x=%d y=%d: %v allocations per steady-state trial, want 0", c.x, c.y, n)
		}
		checkLayout(t, b, 60, 960, c.x, c.y)
		if pdl := ev.ConditionalPDL(b); !(pdl >= 0 && pdl <= 1) {
			t.Errorf("x=%d y=%d: conditional PDL %g", c.x, c.y, pdl)
		}
	}
	for _, v := range s.counts.vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("count table holds %g", v)
		}
	}
}
