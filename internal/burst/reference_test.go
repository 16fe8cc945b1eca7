package burst

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"testing"

	"mlec/internal/placement"
	"mlec/internal/topology"
)

// refSampleLayout is the map-based SampleLayout this package shipped
// before layoutSampler, kept verbatim as the oracle of the variate
// contract: same BurstLayout, same RNG state afterwards.
func refSampleLayout(rng *rand.Rand, totalRacks, dpr, x, y int) (*BurstLayout, error) {
	if x <= 0 || x > totalRacks {
		return nil, fmt.Errorf("burst: x=%d racks out of range [1,%d]", x, totalRacks)
	}
	if y < x || y > x*dpr {
		return nil, fmt.Errorf("burst: y=%d failures not in [x=%d, x·dpr=%d]", y, x, x*dpr)
	}
	racks := rng.Perm(totalRacks)[:x]
	refSortInts(racks)

	// Sample y distinct disks from x·dpr conditioned on full rack
	// coverage, by rejection. Acceptance is high except at y≈x where we
	// fall back to a direct constructive method.
	failed := make([]int, y) // flat indices in [0, x·dpr)
	for attempt := 0; ; attempt++ {
		if attempt >= maxRejects {
			return refConstructiveLayout(rng, racks, dpr, x, y)
		}
		refSampleDistinct(rng, x*dpr, failed)
		if refCoversAllRacks(failed, dpr, x) {
			break
		}
	}
	return refLayoutFromFlat(racks, failed, dpr, x), nil
}

// refConstructiveLayout guarantees coverage: give each rack one random disk,
// then distribute the remaining y−x failures uniformly over the remaining
// disks. The resulting distribution differs negligibly from the
// conditioned-uniform one and is only used in the extreme y≈x corner
// where rejection stalls.
func refConstructiveLayout(rng *rand.Rand, racks []int, dpr, x, y int) (*BurstLayout, error) {
	used := make(map[int]bool, y)
	flat := make([]int, 0, y)
	for r := 0; r < x; r++ {
		d := r*dpr + rng.Intn(dpr)
		used[d] = true
		flat = append(flat, d)
	}
	for len(flat) < y {
		d := rng.Intn(x * dpr)
		if !used[d] {
			used[d] = true
			flat = append(flat, d)
		}
	}
	return refLayoutFromFlat(racks, flat, dpr, x), nil
}

func refLayoutFromFlat(racks []int, flat []int, dpr, x int) *BurstLayout {
	perRack := make([][]int, x)
	for _, f := range flat {
		r := f / dpr
		perRack[r] = append(perRack[r], f%dpr)
	}
	return &BurstLayout{Racks: racks, FailedDisks: perRack}
}

// refSampleDistinct fills dst with len(dst) distinct values from [0, n)
// using a partial Fisher–Yates over a transient map (O(len(dst))).
func refSampleDistinct(rng *rand.Rand, n int, dst []int) {
	swapped := make(map[int]int, len(dst))
	for i := range dst {
		j := i + rng.Intn(n-i)
		vj, ok := swapped[j]
		if !ok {
			vj = j
		}
		vi, ok := swapped[i]
		if !ok {
			vi = i
		}
		dst[i] = vj
		swapped[j] = vi
	}
}

func refCoversAllRacks(flat []int, dpr, x int) bool {
	var seen uint64
	var seenHi []bool
	count := 0
	for _, f := range flat {
		r := f / dpr
		if r < 64 {
			if seen&(1<<r) == 0 {
				seen |= 1 << r
				count++
			}
		} else {
			if seenHi == nil {
				seenHi = make([]bool, x)
			}
			if !seenHi[r] {
				seenHi[r] = true
				count++
			}
		}
	}
	return count == x
}

func refSortInts(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

// contractCase runs the reference and a sampler from equally seeded
// generators for a few consecutive trials and demands the same layouts
// and the same generator state afterwards.
func contractCase(t testing.TB, s *layoutSampler, totalRacks, dpr, x, y int, seed int64) {
	t.Helper()
	refRNG, rng := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
	for trial := 0; trial < 3; trial++ {
		want, wantErr := refSampleLayout(refRNG, totalRacks, dpr, x, y)
		got, err := s.sample(rng, totalRacks, dpr, x, y)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("racks=%d dpr=%d x=%d y=%d: error %v, reference %v", totalRacks, dpr, x, y, err, wantErr)
		}
		if err != nil {
			if err.Error() != wantErr.Error() {
				t.Fatalf("error %q, reference %q", err, wantErr)
			}
			break
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("racks=%d dpr=%d x=%d y=%d seed=%d trial %d:\n got %v\nwant %v", totalRacks, dpr, x, y, seed, trial, got, want)
		}
	}
	if a, b := rng.Int63(), refRNG.Int63(); a != b {
		t.Fatalf("racks=%d dpr=%d x=%d y=%d seed=%d: generator state diverged from the reference", totalRacks, dpr, x, y, seed)
	}
}

// TestSampleLayoutMatchesReference is the variate contract: one sampler,
// reused across every case so stale scratch would show, returns the
// reference's layout and leaves the generator where the reference does —
// through the constructive fallback (y = x), the doomed-attempt region
// just above it, and comfortable acceptance up to y ≥ 2000, on rack
// counts either side of 64.
func TestSampleLayoutMatchesReference(t *testing.T) {
	s := new(layoutSampler)
	for _, x := range []int{1, 3, 11, 41, 60, 64, 65, 100} {
		totalRacks := max(x, 60) + x%7
		for _, dpr := range []int{48, 960} {
			for _, y := range []int{x, x + 1, x + x/2, 2 * x, 5*x + 3, 40 * x, 2000, 2500} {
				if y > x*dpr {
					continue
				}
				for seed := int64(1); seed <= 3; seed++ {
					contractCase(t, s, totalRacks, dpr, x, y, seed)
				}
			}
		}
	}
	// The public wrapper draws the same variates and hands out a copy.
	refRNG, rng := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
	first, err := SampleLayout(rng, 60, 960, 41, 60)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := refSampleLayout(refRNG, 60, 960, 41, 60)
	if _, err := SampleLayout(rng, 60, 960, 3, 28); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, want) {
		t.Fatalf("SampleLayout result changed under a later call:\n got %v\nwant %v", first, want)
	}
}

func TestDividerMatchesDivision(t *testing.T) {
	if bits.UintSize < 64 {
		t.Skip("the reciprocal path needs 32-bit values in a 64-bit int")
	}
	rng := rand.New(rand.NewSource(4))
	shift := 32 // a variable, so that the file still compiles for 32-bit targets
	two32 := 1 << shift
	for _, d := range []int{1, 2, 3, 7, 48, 960, 1 << 16, 1<<31 - 1, two32 - 1} {
		for _, bound := range []int{two32, two32 + 1} { // reciprocal, plain
			dv := newDivider(d, bound)
			vs := []int{0, 1, d - 1, d, d + 1, two32 - 1}
			for i := 0; i < 2000; i++ {
				q := rng.Intn(two32/d + 1)
				vs = append(vs, rng.Intn(two32), q*d-1, q*d)
			}
			for _, v := range vs {
				if v < 0 || v >= two32 {
					continue
				}
				if got := dv.div(v); got != v/d {
					t.Fatalf("d=%d bound=%d: div(%d) = %d, want %d", d, bound, v, got, v/d)
				}
			}
		}
	}
}

func FuzzSampleLayoutMatchesReference(f *testing.F) {
	f.Add(uint8(60), uint16(960), uint8(41), uint16(60), int64(1))
	f.Add(uint8(100), uint16(3), uint8(100), uint16(100), int64(2))
	f.Add(uint8(70), uint16(40), uint8(65), uint16(2100), int64(3))
	f.Add(uint8(2), uint16(3), uint8(2), uint16(7), int64(4))
	s := new(layoutSampler)
	f.Fuzz(func(t *testing.T, totalRacks uint8, dpr uint16, x uint8, y uint16, seed int64) {
		contractCase(t, s, int(totalRacks), int(dpr%1024), int(x), int(y%4096), seed)
	})
}

// TestSamplerSteadyStateAllocs: once its scratch has grown, a sampler
// allocates neither per rejected attempt nor per trial.
func TestSamplerSteadyStateAllocs(t *testing.T) {
	s := new(layoutSampler)
	rng := rand.New(rand.NewSource(1))
	for _, c := range []struct{ x, y int }{{41, 60}, {3, 28}, {50, 50}} {
		trial := func() {
			if _, err := s.sample(rng, 60, 960, c.x, c.y); err != nil {
				t.Fatal(err)
			}
		}
		trial()
		if n := testing.AllocsPerRun(50, trial); n != 0 {
			t.Errorf("x=%d y=%d: %v allocations per steady-state trial, want 0", c.x, c.y, n)
		}
	}
	// 41 racks cannot be covered by 41 draws in practice: every attempt
	// here is a rejected one.
	if n := testing.AllocsPerRun(200, func() { s.attempt(rng, 41*960, 41, 41) }); n != 0 {
		t.Errorf("%v allocations per rejected attempt, want 0", n)
	}
}

// TestHeatmapBitsPinned holds a small MLEC + SLEC heatmap to the PDL, Lo
// and Hi bit patterns the parent of the layoutSampler change produced
// (map-based sampler, map-based evaluators): the sampler draws the same
// variates and the evaluators sum in the same order, so not one ULP may
// move. The digest is FNV-1a over the three bit patterns of every cell.
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
		{name: "mlec C/C", digest: 0xef89f30945b02b9d,
			cells: []cell{{3, 600, 0x3f85555555555555, 0x0, 0x3f9f76d3266540f2}}},
		{name: "mlec C/D", digest: 0xdce382c53f370c3e,
			cells: []cell{{11, 300, 0x3fec1ea415517424, 0x3fea237614e047d4, 0x3fee19d215c2a074}}},
		{name: "mlec D/C", digest: 0x62ef2ebf379361f6},
		{name: "mlec D/D", digest: 0xbac1bc512f59691,
			cells: []cell{
				{3, 44, 0x3f3f3f1fc18cd8fd, 0x3f222c0a29b2f722, 0x3f4ab41d37201b34},
				{41, 300, 0x3f74aa5c7b819e2e, 0x3f64e8f69190c474, 0x3f7ee03dae3ada22}}},
		{name: "slec Loc-Cp", digest: 0x983502486b30f512},
		{name: "slec Loc-Dp", digest: 0xb003816bd244ff23,
			cells: []cell{{41, 120, 0x3fb5555555555555, 0x3f9cb7c28d0cff46, 0x3fc1be5d03b3b56c}}},
		{name: "slec Net-Cp", digest: 0xd37c7daf54e47eba,
			cells: []cell{{11, 44, 0x3fdb42dcdd2d1b03, 0x3fd4f1c568507383, 0x3fe0c9fa2904e142}}},
		{name: "slec Net-Dp", digest: 0x902093b67b4863a0,
			cells: []cell{{11, 44, 0x3feffffffffffee0, 0x3feffffffffffee0, 0x3feffffffffffee0}}},
	}
	for i, s := range []placement.Scheme{placement.SchemeCC, placement.SchemeCD, placement.SchemeDC, placement.SchemeDD} {
		cases[i].ev = NewMLECEvaluator(placement.MustNewLayout(topo, placement.DefaultParams(), s))
	}
	for i, pl := range []placement.SLECPlacement{placement.LocalCp, placement.LocalDp, placement.NetworkCp, placement.NetworkDp} {
		cases[4+i].ev = NewSLECEvaluator(placement.MustNewSLECLayout(topo, placement.SLECParams{K: 7, P: 3}, pl))
	}
	for _, c := range cases {
		g, err := Heatmap(c.ev, xs, ys, 96, 20230911)
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
