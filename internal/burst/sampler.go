package burst

import (
	"fmt"
	"math/bits"
	"math/rand"
	"slices"
	"sync"
)

// maxRejects bounds the rejection attempts of one trial before the
// constructive fallback takes over (the y≈x corner, where coverage by
// chance is hopeless).
const maxRejects = 64

// layoutSampler draws burst layouts and owns every buffer the drawing
// needs: a rejected attempt allocates nothing and consecutive trials
// reuse one BurstLayout. A sampler serves one goroutine at a time.
//
// The variate contract (DESIGN.md, "Burst layout sampling"): a trial
// calls rng.Intn with a fixed sequence of arguments — the rack
// permutation, then y draws per rejection attempt, then the
// constructive draws if all attempts fail — and that sequence is what
// every fixed-seed output of the repository rests on.
type layoutSampler struct {
	perm   []int   // rack permutation; its sorted x-prefix becomes layout.Racks
	table  []int   // Fisher–Yates table over flat disk indices; the identity between attempts
	draws  []draw  // the running attempt, in draw order
	counts []int   // the attempt's failures per affected rack
	disks  []int   // backing store of layout.FailedDisks
	rackOf divider // flat disk index → index of its rack among the x affected
	layout BurstLayout
}

// draw is one draw of an attempt: the variate, an offset into the part
// of the table not yet drawn from, and the flat disk index in
// [0, x·dpr) it selected.
type draw struct{ off, disk int }

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
	n := x * dpr
	s.rackOf = newDivider(dpr, n)
	s.perm = resized(s.perm, totalRacks)
	s.counts = resized(s.counts, x)
	s.draws = resized(s.draws, y)
	s.disks = resized(s.disks, y)
	s.layout.FailedDisks = resized(s.layout.FailedDisks, x)
	if len(s.table) < n {
		s.table = slices.Grow(s.table, n-len(s.table))
		for i := len(s.table); i < n; i++ {
			s.table = append(s.table, i)
		}
	}

	// rng.Perm(totalRacks), draw for draw, into the reused buffer.
	for i := range s.perm {
		j := rng.Intn(i + 1)
		s.perm[i] = s.perm[j]
		s.perm[j] = i
	}
	s.layout.Racks = s.perm[:x]
	slices.Sort(s.layout.Racks)

	// Sample y distinct disks from x·dpr conditioned on full rack
	// coverage, by rejection. Acceptance is high except at y≈x where we
	// fall back to a direct constructive method.
	covered := false
	for attempt := 0; attempt < maxRejects && !covered; attempt++ {
		covered = s.attempt(rng, n, x, y)
	}
	if !covered {
		s.construct(rng, dpr, x, y)
	}

	// Split the flat draws by rack, keeping draw order within a rack.
	off := 0
	for r, c := range s.counts {
		s.layout.FailedDisks[r] = s.disks[off : off : off+c]
		off += c
	}
	for _, d := range s.draws {
		r := s.rackOf.div(d.disk)
		s.layout.FailedDisks[r] = append(s.layout.FailedDisks[r], d.disk-r*dpr)
	}
	return &s.layout, nil
}

// attempt draws y distinct flat disk indices from [0, n) by a partial
// Fisher–Yates and reports whether they cover all x racks. The y
// variates are drawn first, all of them, because the stream must
// advance by exactly y draws whatever becomes of the attempt; the
// shuffle then tallies coverage as it goes and stops once more racks
// are uncovered than draws are left, which is most attempts of a
// scattered cell.
func (s *layoutSampler) attempt(rng *rand.Rand, n, x, y int) bool {
	table, draws, counts := s.table[:n], s.draws[:y], s.counts[:x]
	for i := range draws {
		draws[i].off = rng.Intn(n - i)
	}
	clear(counts)
	rackOf := s.rackOf
	uncovered, done := x, 0
	rest := table // table[i:] at draw i; rest[0] is the slot Fisher–Yates swaps into
	//mlec:hot the shuffle: a scattered cell runs it 64 times per trial
	for i := range draws {
		if uncovered > len(draws)-i {
			break // doomed
		}
		k := draws[i].off
		//lint:allow hotbce k is a random variate below len(rest); no guard can prove that
		v := rest[k]
		rest[k] = rest[0]
		rest = rest[1:]
		draws[i].disk = v
		r := rackOf.div(v)
		//lint:allow hotbce r is the rack of a disk below x·dpr, so below len(counts) = x
		c := counts[r]
		counts[r] = c + 1
		if c == 0 {
			uncovered--
		}
		done++
	}
	for i, d := range draws[:done] {
		table[i+d.off] = i + d.off
	}
	return uncovered == 0
}

// construct guarantees coverage: give each rack one random disk, then
// distribute the remaining y−x failures uniformly over the remaining
// disks. The resulting distribution differs negligibly from the
// conditioned-uniform one and is only used in the extreme y≈x corner
// where rejection stalls.
func (s *layoutSampler) construct(rng *rand.Rand, dpr, x, y int) {
	clear(s.counts)
	for r := 0; r < x; r++ {
		d := r*dpr + rng.Intn(dpr)
		s.table[d] = -1 // taken
		s.draws[r].disk = d
		s.counts[r] = 1
	}
	for k := x; k < y; {
		d := rng.Intn(x * dpr)
		if s.table[d] < 0 {
			continue
		}
		s.table[d] = -1
		s.draws[k].disk = d
		s.counts[s.rackOf.div(d)]++
		k++
	}
	for _, d := range s.draws {
		s.table[d.disk] = d.disk
	}
}

// divider divides indices below a known bound by a fixed d. A 64-bit
// division per draw would bound the draw loop; for v < 2³² the quotient
// v/d is the high word of v·⌈2⁶⁴/d⌉ (Lemire, Kaser & Kurz, "Faster
// remainder by direct computation", 2019), one multiplication.
type divider struct {
	d   int
	mul uint64 // ⌈2⁶⁴/d⌉, or 0 for plain division
}

// newDivider returns a divider by d for values below bound. It divides
// plainly when the values may not fit 32 bits, or when d is 1 and the
// reciprocal overflows to 0 by itself.
func newDivider(d, bound int) divider {
	if uint64(bound) > 1<<32 {
		return divider{d: d}
	}
	return divider{d: d, mul: ^uint64(0)/uint64(d) + 1}
}

func (dv divider) div(v int) int {
	if dv.mul == 0 {
		return v / dv.d
	}
	q, _ := bits.Mul64(dv.mul, uint64(v))
	return int(q)
}

// resized returns buf with length n, reallocating only to grow; the
// contents are unspecified.
func resized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
