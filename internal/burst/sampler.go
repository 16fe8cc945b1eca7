package burst

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"

	"mlec/internal/mathx"
)

// layoutSampler draws burst layouts without rejection and owns every
// buffer the drawing needs: consecutive trials reuse one BurstLayout and
// the count table of their cell. A sampler serves one goroutine at a
// time.
//
// The variate contract (DESIGN.md, "Burst layout sampling"): a trial
// calls rng.Intn x times for the racks, then, rack by rack in ascending
// rack order, rng.Float64 once for the rack's failure count c and
// rng.Intn c times for its failed disks. That sequence is what every
// fixed-seed output of the repository rests on.
type layoutSampler struct {
	rackTable []int  // Fisher–Yates table over rack ids; the identity between trials
	chosen    []bool // the racks drawn by the running trial; all false between trials
	diskTable []int  // Fisher–Yates table over rack-local disks; the identity between racks
	swaps     []int  // the running shuffle's swap partners, to restore its table
	disks     []int  // backing store of layout.FailedDisks
	counts    countTable
	layout    BurstLayout
}

// samplers recycles samplers across the batches and cells of a grid; a
// sampler's scratch depends on no topology, only grows.
var samplers = sync.Pool{New: func() any { return new(layoutSampler) }}

// SampleLayout draws a burst layout: x distinct racks chosen uniformly
// from totalRacks, and y distinct disks chosen uniformly from the x·dpr
// disks conditioned on every rack receiving at least one failure.
func SampleLayout(rng *rand.Rand, totalRacks, dpr, x, y int) (*BurstLayout, error) {
	s := samplers.Get().(*layoutSampler)
	b, err := s.sample(rng, totalRacks, dpr, x, y)
	if err != nil {
		return nil, err
	}
	// The caller keeps the layout; the sampler's own is overwritten by
	// the next trial.
	out := &BurstLayout{Racks: slices.Clone(b.Racks), FailedDisks: make([][]int, x)}
	disks := slices.Clone(s.disks)
	for r, d := range b.FailedDisks {
		out.FailedDisks[r], disks = disks[:len(d):len(d)], disks[len(d):]
	}
	samplers.Put(s) // not deferred: a sampler that panicked mid-draw is not reused
	return out, nil
}

// sample is SampleLayout into the sampler's own layout, which stays
// valid until the next call.
func (s *layoutSampler) sample(rng *rand.Rand, totalRacks, dpr, x, y int) (*BurstLayout, error) {
	if x <= 0 || x > totalRacks {
		return nil, fmt.Errorf("burst: x=%d racks out of range [1,%d]", x, totalRacks)
	}
	if y < x || y > x*dpr {
		return nil, fmt.Errorf("burst: y=%d failures not in [x=%d, x·dpr=%d]", y, x, x*dpr)
	}
	t := &s.counts
	if t.dpr != dpr || t.x != x || t.y != y {
		if err := t.build(dpr, x, y); err != nil {
			return nil, err
		}
	}
	s.rackTable = identity(s.rackTable, totalRacks)
	if len(s.chosen) < totalRacks {
		s.chosen = make([]bool, totalRacks)
	}
	s.diskTable = identity(s.diskTable, dpr)
	s.swaps = resized(s.swaps, max(x, dpr))
	s.disks = resized(s.disks, y)
	s.layout.Racks = resized(s.layout.Racks, x)
	s.layout.FailedDisks = resized(s.layout.FailedDisks, x)

	// The racks: a partial Fisher–Yates, read back in ascending order
	// off a mark per rack, which is cheaper than sorting them.
	for _, r := range s.shuffle(rng, s.rackTable[:totalRacks], x) {
		s.chosen[r] = true
	}
	s.restore(s.rackTable, x)
	racks := s.layout.Racks[:0]
	for r, ok := range s.chosen[:totalRacks] {
		if ok {
			racks = append(racks, r)
			s.chosen[r] = false
		}
	}

	// Rack by rack, its failure count given the failures the racks after
	// it still need, then that many of its disks.
	k, off := y-x, 0 // k: failures still to place beyond one per rack
	for r := range racks {
		e := t.draw(rng, x-r, k)
		k -= e
		c := e + 1
		s.layout.FailedDisks[r] = s.disks[off : off+c : off+c]
		copy(s.layout.FailedDisks[r], s.shuffle(rng, s.diskTable[:dpr], c))
		s.restore(s.diskTable, c)
		off += c
	}
	return &s.layout, nil
}

// shuffle runs the first n steps of a Fisher–Yates shuffle of table,
// one rng.Intn per step, logs each step's partner in s.swaps and
// returns the n values drawn.
func (s *layoutSampler) shuffle(rng *rand.Rand, table []int, n int) []int {
	for i := range n {
		j := i + rng.Intn(len(table)-i)
		table[i], table[j] = table[j], table[i]
		s.swaps[i] = j
	}
	return table[:n]
}

// restore makes table the identity again after shuffle(…, n): only the
// first n slots and their logged partners moved.
func (s *layoutSampler) restore(table []int, n int) {
	for i, j := range s.swaps[:n] {
		table[i], table[j] = i, j
	}
}

// countTable is the coverage dynamic program of one (dpr, x, y) cell,
// the same "≥ 1 per rack" convolution as convolveMin1.
//
// Conditioned on their sum, the per-rack failure counts of a uniform
// y-subset of the x·dpr disks are independent Binomial(dpr, p) counts
// for any p: a count vector (c₁ … cₓ) has probability ∝ Π C(dpr, cᵣ),
// and p^y·(1−p)^(x·dpr−y) is the same for every vector. With
// p = y/(x·dpr) every weight is at most 1 and y is the counts' mean
// before conditioning, so nothing overflows. A rack's count is c = e+1,
// e ≥ 0 its extra failures, with weight w[e] = Binomial(dpr, p)(e+1).
//
// Row i holds ways(i, k): the total weight of giving i racks i+k
// failures, each at least one, i.e. Σ_e w[e]·ways(i−1, k−e). It is kept
// only for the k a trial can reach from (x, y−x) and where the weight
// is not 0 in float64 arithmetic.
type countTable struct {
	dpr, x, y int // the cell the table is for; x = 0 while none is
	w         []float64
	wlo, whi  int   // the e with w[e] > 0
	lo        []int // row i holds k from lo[i] on
	start     []int // row i is vals[start[i]:start[i+1]]
	vals      []float64
}

// build fills the table for (dpr, x, y), reusing its buffers; x ≥ 1,
// x ≤ y ≤ x·dpr.
func (t *countTable) build(dpr, x, y int) error {
	t.x = 0
	d := y - x
	p := float64(y) / float64(x*dpr)
	logP, logQ := math.Log(p), math.Log1p(-p)
	t.w = resized(t.w, min(dpr, d+1))
	t.wlo, t.whi = -1, -1
	for e := range t.w {
		c := e + 1
		lw := mathx.LogChoose(dpr, c) + float64(c)*logP
		if c < dpr { // at p = 1, 0·log 0 would be NaN
			lw += float64(dpr-c) * logQ
		}
		if t.w[e] = math.Exp(lw); t.w[e] > 0 {
			if t.wlo < 0 {
				t.wlo = e
			}
			t.whi = e
		}
	}
	if t.wlo < 0 {
		return fmt.Errorf("burst: no rack count of dpr=%d has weight at x=%d y=%d", dpr, x, y)
	}
	t.lo, t.start = resized(t.lo, x+1), resized(t.start, x+2)
	t.vals = append(t.vals[:0], 1) // row 0: no racks, no failures
	t.lo[0], t.start[0], t.start[1] = 0, 0, 1
	for i := 1; i <= x; i++ {
		plo, prev := t.row(i - 1)
		phi := plo + len(prev) - 1
		// Reachable: the x−i racks drawn before took wlo…whi extras each.
		lo := max(plo+t.wlo, d-(x-i)*t.whi, 0)
		hi := min(phi+t.whi, d-(x-i)*t.wlo, d)
		base := len(t.vals)
		for k := lo; k <= hi; k++ {
			var sum float64
			for e := max(t.wlo, k-phi); e <= min(t.whi, k-plo); e++ {
				sum += t.w[e] * prev[k-e-plo]
			}
			t.vals = append(t.vals, sum)
		}
		// Drop the ends that underflowed to 0.
		row := t.vals[base:]
		first := slices.IndexFunc(row, func(v float64) bool { return v > 0 })
		if first < 0 {
			return fmt.Errorf("burst: coverage weights underflow at dpr=%d x=%d y=%d", dpr, x, y)
		}
		last := len(row) - 1
		for row[last] == 0 {
			last--
		}
		t.vals = append(t.vals[:base], row[first:last+1]...)
		t.lo[i], t.start[i+1] = lo+first, len(t.vals)
	}
	t.dpr, t.x, t.y = dpr, x, y
	return nil
}

// row returns row i and the k of its first entry.
func (t *countTable) row(i int) (lo int, vals []float64) {
	return t.lo[i], t.vals[t.start[i]:t.start[i+1]]
}

// draw returns the extra failures e of the next rack when i racks,
// this one included, still need i+k failures: one rng.Float64, then a
// scan of e upward against w[e]·ways(i−1, k−e)/ways(i, k). The scan
// adds the terms in the order build did, so its running sum ends at
// ways(i, k) exactly; a variate that rounding leaves above it takes the
// last e of positive weight.
func (t *countTable) draw(rng *rand.Rand, i, k int) int {
	lo, cur := t.row(i)
	plo, prev := t.row(i - 1)
	u := rng.Float64() * cur[k-lo]
	e, last := max(t.wlo, k-(plo+len(prev)-1)), -1
	for acc, ehi := 0.0, min(t.whi, k-plo); e <= ehi; e++ {
		term := t.w[e] * prev[k-e-plo]
		if term == 0 {
			continue
		}
		last = e
		if acc += term; acc > u {
			return e
		}
	}
	return last
}

// identity extends buf, whose entries are the identity, to at least n
// entries with buf[i] = i.
func identity(buf []int, n int) []int {
	for i := len(buf); i < n; i++ {
		buf = append(buf, i)
	}
	return buf
}

// resized returns buf with length n, reallocating only to grow; the
// contents are unspecified.
func resized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
