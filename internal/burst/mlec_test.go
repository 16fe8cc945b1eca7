package burst

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"mlec/internal/mathx"
	"mlec/internal/placement"
	"mlec/internal/topology"
)

// smallTopo is a dense test datacenter where burst effects are strong
// enough to measure with modest trial counts: 6 racks × 2 enclosures × 8
// disks; (2+1)/(2+2) MLEC so local pools are 4 (Cp) or 8 (Dp) disks.
func smallTopo() (topology.Config, placement.Params) {
	topo := topology.Default()
	topo.Racks = 6
	topo.EnclosuresPerRack = 2
	topo.DisksPerEnclosure = 8
	return topo, placement.Params{KN: 2, PN: 1, KL: 2, PL: 2}
}

func mlecPDL(t *testing.T, topo topology.Config, p placement.Params, s placement.Scheme, x, y, trials int) float64 {
	t.Helper()
	l, err := placement.NewLayout(topo, p, s)
	if err != nil {
		t.Fatal(err)
	}
	r, err := PDLContext(context.Background(), NewMLECEvaluator(l), x, y, trials, 12345, "")
	if err != nil {
		t.Fatal(err)
	}
	return r.PDL
}

// TestFinding3ZeroLossGuarantees: a network stripe survives any pn rack
// failures, and y ≤ x+(local tolerance budget) failures cannot create
// pn+1 catastrophic pools (§4.1.1 F#3).
func TestFinding3ZeroLossGuarantees(t *testing.T) {
	topo := topology.Default()
	p := placement.DefaultParams()
	for _, s := range placement.AllSchemes {
		// x ≤ pn affected racks → PDL exactly 0, any y.
		for _, x := range []int{1, 2} {
			if got := mlecPDL(t, topo, p, s, x, x*100, 50); got != 0 {
				t.Errorf("%v x=%d: PDL = %g, want 0 (≤ pn racks)", s, x, got)
			}
		}
		// y ≤ x+8 failures in x racks cannot make 3 pools lose 4 disks
		// each (needs ≥ x+9 = (x−3)·1 + 3·4).
		for _, x := range []int{3, 5, 10} {
			if got := mlecPDL(t, topo, p, s, x, x+8, 50); got != 0 {
				t.Errorf("%v x=%d y=%d: PDL = %g, want 0 (F#3 budget)", s, x, x+8, got)
			}
		}
	}
}

// TestFinding1MorefailuresMorePDL: with bursts in ≥ pn+1 racks, PDL grows
// with the failure count (§4.1.1 F#1).
func TestFinding1MoreFailuresMorePDL(t *testing.T) {
	topo, p := smallTopo()
	const trials = 4000
	for _, s := range placement.AllSchemes {
		low := mlecPDL(t, topo, p, s, 2, 8, trials)
		high := mlecPDL(t, topo, p, s, 2, 16, trials) // every disk in 2 racks
		if high < low {
			t.Errorf("%v: PDL(y=16)=%g < PDL(y=8)=%g", s, high, low)
		}
		if high == 0 {
			t.Errorf("%v: saturated burst should lose data", s)
		}
	}
}

// TestFinding2ScatteredIsSafer: fixed y, more racks → lower PDL (F#2).
func TestFinding2ScatteredIsSafer(t *testing.T) {
	topo, p := smallTopo()
	const trials = 6000
	for _, s := range placement.AllSchemes {
		concentrated := mlecPDL(t, topo, p, s, 2, 12, trials)
		scattered := mlecPDL(t, topo, p, s, 6, 12, trials)
		if scattered > concentrated {
			t.Errorf("%v: scattered PDL %g > concentrated %g", s, scattered, concentrated)
		}
	}
}

// TestFinding4WorstAtPnPlus1Racks: PDL peaks when the burst hits exactly
// pn+1 racks (F#4).
func TestFinding4WorstAtPnPlus1Racks(t *testing.T) {
	topo, p := smallTopo() // pn+1 = 2
	const trials = 6000
	for _, s := range placement.AllSchemes {
		peak := mlecPDL(t, topo, p, s, 2, 12, trials)
		for _, x := range []int{3, 4, 6} {
			other := mlecPDL(t, topo, p, s, x, 12, trials)
			if other > peak*1.15 { // small MC slack
				t.Errorf("%v: PDL(x=%d)=%g exceeds peak at pn+1 racks %g", s, x, other, peak)
			}
		}
	}
}

// TestFindings567SchemeOrdering: C/D, D/C and D/D all tolerate localized
// bursts worse than C/C, and D/D is the worst overall (F#5, F#6, F#7).
func TestFindings567SchemeOrdering(t *testing.T) {
	topo, p := smallTopo()
	const trials = 20000
	x, y := 2, 10
	pdl := map[placement.Scheme]float64{}
	for _, s := range placement.AllSchemes {
		pdl[s] = mlecPDL(t, topo, p, s, x, y, trials)
	}
	cc, cd := pdl[placement.SchemeCC], pdl[placement.SchemeCD]
	dc, dd := pdl[placement.SchemeDC], pdl[placement.SchemeDD]
	t.Logf("PDL @(x=%d,y=%d): C/C=%.4g C/D=%.4g D/C=%.4g D/D=%.4g", x, y, cc, cd, dc, dd)
	if cd < cc {
		t.Errorf("F#5: C/D (%g) must be ≥ C/C (%g)", cd, cc)
	}
	if dc < cc {
		t.Errorf("F#6: D/C (%g) must be ≥ C/C (%g)", dc, cc)
	}
	if dd < cc || dd < cd*0.8 || dd < dc*0.8 {
		t.Errorf("F#7: D/D (%g) must be the worst (C/C=%g C/D=%g D/C=%g)", dd, cc, cd, dc)
	}
}

// TestConditionalPDLStripeLevelCrossCheck validates the analytic
// conditional PDL of a C/D layout against a direct stripe-level
// simulation that materializes declustered layouts and counts lost
// network stripes.
func TestConditionalPDLStripeLevelCrossCheck(t *testing.T) {
	topo, p := smallTopo()
	topo.DiskCapacityBytes = 64 * topo.ChunkSizeBytes // 64 chunks/disk
	l, err := placement.NewLayout(topo, p, placement.SchemeCD)
	if err != nil {
		t.Fatal(err)
	}
	ev := NewMLECEvaluator(l)

	rng := rand.New(rand.NewSource(99))
	// Draw layouts until one has a materially nonzero conditional PDL so
	// the cross-check actually discriminates.
	var layout *BurstLayout
	var want float64
	for i := 0; ; i++ {
		var err error
		layout, err = SampleLayout(rng, topo.Racks, topo.DisksPerRack(), 2, 10)
		if err != nil {
			t.Fatal(err)
		}
		want = ev.ConditionalPDL(layout)
		if want > 0.05 && want < 0.9 {
			break
		}
		if i > 200 {
			t.Fatal("no layout with nonzero conditional PDL found")
		}
	}

	// Direct simulation: for each placement sample, decluster each
	// pool's stripes uniformly, mark lost local stripes, pair local
	// stripe s across the aligned pools of each network pool, count
	// network stripes with ≥ pn+1 lost members.
	stripesPerPool := int(l.LocalStripesPerPool()) // 8·64/4 = 128
	w := p.LocalWidth()
	d := l.LocalPoolSize()
	dpr := topo.DisksPerRack()

	failedByPool := map[int]map[int]bool{} // pool → set of in-pool disk idx
	for i, rack := range layout.Racks {
		for _, disk := range layout.FailedDisks[i] {
			global := rack*dpr + disk
			pool := l.PoolOfDisk(global)
			if failedByPool[pool] == nil {
				failedByPool[pool] = map[int]bool{}
			}
			// In-pool index: disks of a Dp pool are the enclosure's.
			failedByPool[pool][global%d] = true
		}
	}

	const placements = 3000
	losses := 0
	for pi := 0; pi < placements; pi++ {
		// lost[pool][s] for affected pools only.
		lostByPool := map[int][]bool{}
		for pool, failed := range failedByPool {
			lost := make([]bool, stripesPerPool)
			for s := 0; s < stripesPerPool; s++ {
				cnt := 0
				for _, dd := range rng.Perm(d)[:w] {
					if failed[dd] {
						cnt++
					}
				}
				if cnt > p.PL {
					lost[s] = true
				}
			}
			lostByPool[pool] = lost
		}
		// Network pools: aligned members.
		members := map[int][]int{}
		for pool := range lostByPool {
			np := l.NetworkPoolOf(pool)
			members[np] = append(members[np], pool)
		}
		lossHere := false
		for _, pools := range members {
			for s := 0; s < stripesPerPool && !lossHere; s++ {
				cnt := 0
				for _, pool := range pools {
					if lostByPool[pool][s] {
						cnt++
					}
				}
				if cnt > p.PN {
					lossHere = true
				}
			}
			if lossHere {
				break
			}
		}
		if lossHere {
			losses++
		}
	}
	got := float64(losses) / placements
	lo, hi := mathx.WilsonInterval(losses, placements)
	t.Logf("analytic %.4f, stripe-level sim %.4f [%.4f, %.4f]", want, got, lo, hi)
	// The analytic value must fall in (a slightly widened) MC interval.
	slack := 0.03
	if want < lo-slack || want > hi+slack {
		t.Errorf("analytic conditional PDL %g outside sim interval [%g,%g]", want, lo, hi)
	}
}

func TestConditionalPDLNoCatastrophicPools(t *testing.T) {
	topo := topology.Default()
	l := placement.MustNewLayout(topo, placement.DefaultParams(), placement.SchemeDD)
	ev := NewMLECEvaluator(l)
	// 3 failures in one rack cannot exceed pl=3 anywhere.
	b := &BurstLayout{Racks: []int{0}, FailedDisks: [][]int{{0, 1, 2}}}
	if got := ev.ConditionalPDL(b); got != 0 {
		t.Errorf("PDL = %g, want 0", got)
	}
}

func TestCCDeterministicLoss(t *testing.T) {
	// C/C with pn+1 catastrophic pools aligned in one network pool loses
	// data with certainty.
	topo, p := smallTopo()
	l := placement.MustNewLayout(topo, p, placement.SchemeCC)
	ev := NewMLECEvaluator(l)
	// Racks 0 and 1 are in the same rack group (width 3); kill the
	// first pool (disks 0..3) of each with pl+1 = 3 failures.
	b := &BurstLayout{
		Racks:       []int{0, 1},
		FailedDisks: [][]int{{0, 1, 2}, {0, 1, 2}},
	}
	if got := ev.ConditionalPDL(b); math.Abs(got-1) > 1e-12 {
		t.Errorf("aligned catastrophic pools: PDL = %g, want 1", got)
	}
	// Same failures at different positions: no aligned network pool.
	b2 := &BurstLayout{
		Racks:       []int{0, 1},
		FailedDisks: [][]int{{0, 1, 2}, {4, 5, 6}},
	}
	if got := ev.ConditionalPDL(b2); got != 0 {
		t.Errorf("misaligned catastrophic pools: PDL = %g, want 0", got)
	}
}

func TestLostStripeFraction(t *testing.T) {
	topo := topology.Default()
	p := placement.DefaultParams()
	cp := NewMLECEvaluator(placement.MustNewLayout(topo, p, placement.SchemeCC))
	dp := NewMLECEvaluator(placement.MustNewLayout(topo, p, placement.SchemeCD))
	if cp.lostStripeFraction(3) != 0 || dp.lostStripeFraction(3) != 0 {
		t.Error("≤ pl failures must lose nothing")
	}
	if cp.lostStripeFraction(4) != 1 {
		t.Error("Cp pool with pl+1 failures loses everything")
	}
	phi := dp.lostStripeFraction(4)
	if phi < 5.5e-4 || phi > 6.5e-4 {
		t.Errorf("Dp φ(4) = %g, want ≈5.9e-4", phi)
	}
	if dp.lostStripeFraction(8) <= phi {
		t.Error("φ must grow with failure count")
	}
}

// TestFailedPoolsMatchesPoolOfDisk: the evaluators' pool tally divides
// flat disk indices by the pool size; that must stay the dense pool id
// placement.Layout.PoolOfDisk assigns, in ascending order.
func TestFailedPoolsMatchesPoolOfDisk(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	small, smallParams := smallTopo()
	for _, c := range []struct {
		topo   topology.Config
		params placement.Params
	}{{topology.Default(), placement.DefaultParams()}, {small, smallParams}} {
		topo, params := c.topo, c.params
		for _, s := range []placement.Scheme{placement.SchemeCD, placement.SchemeDD} {
			l := placement.MustNewLayout(topo, params, s)
			dpr := topo.DisksPerRack()
			b, err := SampleLayout(rng, topo.Racks, dpr, 3, 40)
			if err != nil {
				t.Fatal(err)
			}
			var want []int
			for i, rack := range b.Racks {
				for _, d := range b.FailedDisks[i] {
					want = append(want, l.PoolOfDisk(rack*dpr+d))
				}
			}
			sort.Ints(want)
			got := failedPools(nil, b, dpr, l.LocalPoolSize())
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%v on %d racks: pool ids %v, PoolOfDisk gives %v", s, topo.Racks, got, want)
			}
		}
	}
}
