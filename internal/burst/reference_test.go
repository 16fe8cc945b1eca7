package burst

import (
	"context"
	"math"
	"math/bits"
	"math/rand"
	"testing"

	"mlec/internal/mathx"
	"mlec/internal/mathx/rngsplit"

	"mlec/internal/placement"
	"mlec/internal/topology"
)

// refLRCConditionalPDL is LRCEvaluator.ConditionalPDL as it was before
// its scratch moved to the stack, kept with the allocating helpers below
// as the oracle of its bits.
func refLRCConditionalPDL(e *LRCEvaluator, b *BurstLayout) float64 {
	l := e.Layout
	p := l.Params
	width := p.Width()
	racks := l.Topo.Racks
	dpr := float64(l.Topo.DisksPerRack())
	psi := make([]float64, racks)
	for i, rack := range b.Racks {
		psi[rack] = float64(len(b.FailedDisks[i])) / dpr
	}
	key, draws := rngsplit.Mix(e.seed, int(layoutHash(b))), 0
	var sum float64
	slot := make([]float64, width)
	perm := make([]int, racks)
	for range lrcAssignments {
		for i := range perm {
			perm[i] = i
		}
		for s := range slot {
			word, _ := bits.Mul64(uint64(rngsplit.Mix(key, draws)), uint64(racks-s))
			draws++
			j := s + int(word)
			perm[s], perm[j] = perm[j], perm[s]
			slot[s] = psi[perm[s]]
		}
		sum += refLRCUnrecoverableProb(p, slot)
	}
	pUnrec := sum / lrcAssignments
	expected := l.TotalStripes() * pUnrec
	return -math.Expm1(-expected)
}

func refLRCUnrecoverableProb(p placement.LRCParams, slot []float64) float64 {
	groupSize := p.K / p.L
	capN := p.R + 1
	dist := refPoissonBinomialPMFCapped(slot[p.K+p.L:], capN)
	for g := 0; g < p.L; g++ {
		probs := make([]float64, 0, groupSize+1)
		probs = append(probs, slot[g*groupSize:(g+1)*groupSize]...)
		probs = append(probs, slot[p.K+g])
		fDist := refPoissonBinomialPMFCapped(probs, capN+1)
		exDist := make([]float64, capN+1)
		exDist[0] = fDist[0] + fDist[1]
		for f := 2; f < len(fDist); f++ {
			e := f - 1
			if e > capN {
				e = capN
			}
			exDist[e] += fDist[f]
		}
		dist = refConvolveCapped(dist, exDist, capN)
	}
	return dist[capN]
}

func refPoissonBinomialPMFCapped(probs []float64, capN int) []float64 {
	dp := make([]float64, capN+1)
	dp[0] = 1
	for _, p := range probs {
		if p == 0 {
			continue
		}
		for j := capN; j >= 1; j-- {
			if j == capN {
				dp[j] = dp[j] + dp[j-1]*p
			} else {
				dp[j] = dp[j]*(1-p) + dp[j-1]*p
			}
		}
		dp[0] *= 1 - p
	}
	return dp
}

func refConvolveCapped(a, b []float64, capN int) []float64 {
	out := make([]float64, capN+1)
	for i, pa := range a {
		if pa == 0 {
			continue
		}
		for j, pb := range b {
			if pb == 0 {
				continue
			}
			s := i + j
			if s > capN {
				s = capN
			}
			out[s] += pa * pb
		}
	}
	return out
}

func refSampledRackLossTail(psis []float64, totalRacks, m, t int) float64 {
	a := len(psis)
	if t <= 0 {
		return 1
	}
	if a == 0 {
		return 0
	}
	maxJ := a
	if m < maxJ {
		maxJ = m
	}
	cols := t + 1
	T := make([]float64, (maxJ+1)*cols)
	T[0] = 1
	for _, psi := range psis {
		for j := maxJ; j >= 1; j-- {
			prev, cur := T[(j-1)*cols:j*cols], T[j*cols:(j+1)*cols]
			cur[t] += prev[t] + prev[t-1]*psi
			for l := t - 1; l >= 1; l-- {
				cur[l] += prev[l]*(1-psi) + prev[l-1]*psi
			}
			cur[0] += prev[0] * (1 - psi)
		}
	}
	logDen := mathx.LogChoose(totalRacks, m)
	p := 0.0
	for j := 0; j <= maxJ; j++ {
		if m-j > totalRacks-a || m-j < 0 {
			continue
		}
		w := math.Exp(mathx.LogChoose(totalRacks-a, m-j) - logDen)
		p += w * T[j*cols+t]
	}
	if p > 1 {
		p = 1
	}
	return p
}

// TestEvaluatorsMatchReference: over 1,200 sampled layouts at each of a
// localized, a mid and a scattered shape, the LRC conditional PDL and
// the sampled-rack loss tail return the reference's bits, and the LRC
// evaluator allocates nothing per call.
func TestEvaluatorsMatchReference(t *testing.T) {
	topo := topology.Default()
	ll := placement.MustNewLRCLayout(topo, placement.LRCParams{K: 14, L: 2, R: 4})
	ev := NewLRCEvaluator(ll, 20230911)
	s := new(layoutSampler)
	rng := rand.New(rand.NewSource(3))
	for _, c := range []struct{ x, y int }{{3, 28}, {11, 44}, {41, 60}} {
		for trial := 0; trial < 1200; trial++ {
			b, err := s.sample(rng, topo.Racks, topo.DisksPerRack(), c.x, c.y)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := ev.ConditionalPDL(b), refLRCConditionalPDL(ev, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("x=%d y=%d trial %d: LRC conditional PDL %v, reference %v", c.x, c.y, trial, got, want)
			}
			psis := make([]float64, len(b.FailedDisks))
			for i, d := range b.FailedDisks {
				psis[i] = float64(len(d)) / float64(topo.DisksPerRack())
			}
			for _, m := range []int{12, 20} {
				if got, want := sampledRackLossTail(psis, topo.Racks, m, 4), refSampledRackLossTail(psis, topo.Racks, m, 4); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("x=%d y=%d trial %d: rack loss tail %v, reference %v", c.x, c.y, trial, got, want)
				}
			}
		}
		b, _ := s.sample(rng, topo.Racks, topo.DisksPerRack(), c.x, c.y)
		if n := testing.AllocsPerRun(100, func() { ev.ConditionalPDL(b) }); n != 0 {
			t.Errorf("x=%d y=%d: %v allocations per LRC conditional PDL, want 0", c.x, c.y, n)
		}
	}
}

// TestHeatmapBitsPinned holds a small MLEC + SLEC heatmap to the PDL, Lo
// and Hi bit patterns recorded when the sampler became rejection-free
// and the interval took its variance from per-batch deviations: a
// change that draws other variates, sums the evaluators in another
// order or merges the batches differently moves them. The digest is
// FNV-1a over the three bit patterns of every cell.
func TestHeatmapBitsPinned(t *testing.T) {
	topo := topology.Default()
	xs, ys := []int{3, 11, 41}, []int{44, 120, 300, 600}
	type cell struct {
		x, y        int
		pdl, lo, hi uint64
	}
	cases := []struct {
		name   string
		ev     Evaluator
		digest uint64
		cells  []cell
	}{
		{name: "mlec C/C", digest: 0x3a4eb0f79008b1c0,
			cells: []cell{{3, 600, 0x3f95555555555557, 0x0, 0x3fa94b8c50a7516b}}},
		{name: "mlec C/D", digest: 0xfcf84eca12f2e40e,
			cells: []cell{{11, 300, 0x3fea938661df1628, 0x3fe85dec4d9a3002, 0x3fecc9207623fc4e}}},
		{name: "mlec D/C", digest: 0x2259c0d7ce2382e9},
		{name: "mlec D/D", digest: 0xa80b2cbbf28b49b0,
			cells: []cell{
				{3, 44, 0x3f4dfa64add747e5, 0x0, 0x3f5e8a664517529e},
				{41, 300, 0x3f816472032d481e, 0x3f6b2675e579097e, 0x3f8bff468cfc4ddc}}},
		{name: "slec Loc-Cp", digest: 0x40a8851201a01a48},
		{name: "slec Loc-Dp", digest: 0xedeac857ebde5be4,
			cells: []cell{{41, 120, 0x3fc5555555555555, 0x3fb794e2531ee73e, 0x3fcee039811b370b}}},
		{name: "slec Net-Cp", digest: 0x2dca8a0adc894c4c,
			cells: []cell{{11, 44, 0x3fdea7794b82fae7, 0x3fd842d080ece88a, 0x3fe286110b0c86a2}}},
		{name: "slec Net-Dp", digest: 0x3cdda7ec1f35c2bc,
			cells: []cell{{11, 44, 0x3fefffffffffff89, 0x3fefffffffffff34, 0x3fefffffffffffde}}},
	}
	for i, s := range []placement.Scheme{placement.SchemeCC, placement.SchemeCD, placement.SchemeDC, placement.SchemeDD} {
		cases[i].ev = NewMLECEvaluator(placement.MustNewLayout(topo, placement.DefaultParams(), s))
	}
	for i, pl := range []placement.SLECPlacement{placement.LocalCp, placement.LocalDp, placement.NetworkCp, placement.NetworkDp} {
		cases[4+i].ev = NewSLECEvaluator(placement.MustNewSLECLayout(topo, placement.SLECParams{K: 7, P: 3}, pl))
	}
	for _, c := range cases {
		g, err := HeatmapContext(context.Background(), c.ev, xs, ys, 96, 20230911, "")
		if err != nil {
			t.Fatal(err)
		}
		h := uint64(14695981039346656037)
		for iy := range ys {
			for ix := range xs {
				r := g.Cells[iy][ix]
				for _, v := range []float64{r.PDL, r.Lo, r.Hi} {
					for b := 0; b < 64; b += 8 {
						h = (h ^ math.Float64bits(v)>>b&0xff) * 1099511628211
					}
				}
				for _, want := range c.cells {
					if want.x == xs[ix] && want.y == ys[iy] &&
						(math.Float64bits(r.PDL) != want.pdl || math.Float64bits(r.Lo) != want.lo || math.Float64bits(r.Hi) != want.hi) {
						t.Errorf("%s x=%d y=%d: PDL/Lo/Hi bits %#x %#x %#x, pinned %#x %#x %#x", c.name, want.x, want.y,
							math.Float64bits(r.PDL), math.Float64bits(r.Lo), math.Float64bits(r.Hi), want.pdl, want.lo, want.hi)
					}
				}
			}
		}
		if h != c.digest {
			t.Errorf("%s: heatmap digest %#x, pinned %#x", c.name, h, c.digest)
		}
	}
}
