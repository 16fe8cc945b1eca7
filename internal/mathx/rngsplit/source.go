package rngsplit

import "math/rand"

// math/rand's generator: an additive lagged Fibonacci register of rngLen
// words with tap rngTap, seeded by the Lehmer LCG x_{n+1} = lcgA·x_n mod
// lcgMod.
const (
	rngLen = 607
	rngTap = 273
	lcgA   = 48271
	lcgMod = 1<<31 - 1
)

// lcgPow[i] = lcgA^(21+3i) mod lcgMod: the factor taking the LCG from its
// seed x_0 to x_{21+3i}, the first of the three values word i is built
// from.
var lcgPow = func() (t [rngLen]uint64) {
	x := uint64(1)
	for n := 0; n < 21; n++ {
		x = x * lcgA % lcgMod
	}
	for i := range t {
		t[i] = x
		for n := 0; n < 3; n++ {
			x = x * lcgA % lcgMod
		}
	}
	return t
}()

// Source is a rand.Source64 whose draws are identical, one for one, to
// those of rand.NewSource(seed), but whose Seed costs O(1) instead of
// filling the 607-word register.
//
// math/rand seeds word i of its register as x_{21+3i}<<40 ^ x_{22+3i}<<20
// ^ x_{23+3i} ^ rngCooked[i], where x_n = 48271^n·x_0 mod (2^31−1) is its
// seeding LCG started from the normalised seed x_0. Each word is
// therefore a function of x_0 and i alone, and Source computes it from
// lcgPow when a draw first reads it. A short stream — a splitting
// trajectory draws a handful of variates — reads a few words, not 607.
type Source struct {
	tap, feed int
	x0        uint64                     // normalised seed: x_0 of the seeding LCG
	seeded    [(rngLen + 63) / 64]uint64 // bit i: vec[i] holds its value
	vec       [rngLen]int64
}

var _ rand.Source64 = (*Source)(nil)

// NewSource returns a Source seeded with seed.
func NewSource(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// Seed resets the generator to the state rand.NewSource(seed) starts in.
func (s *Source) Seed(seed int64) {
	s.tap, s.feed = 0, rngLen-rngTap
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
	s.seeded = [len(s.seeded)]uint64{}
}

// word returns register word i, computing its seeded value on first read.
func (s *Source) word(i int) int64 {
	if s.seeded[i>>6]&(1<<(i&63)) == 0 {
		s.seedWord(i)
	}
	return s.vec[i]
}

func (s *Source) seedWord(i int) {
	a := lcgPow[i] * s.x0 % lcgMod
	b := a * lcgA % lcgMod
	c := b * lcgA % lcgMod
	s.vec[i] = int64(a<<40^b<<20^c) ^ rngCooked[i]
	s.seeded[i>>6] |= 1 << (i & 63)
}

// Uint64 returns a pseudo-random 64-bit value.
func (s *Source) Uint64() uint64 {
	if s.tap--; s.tap < 0 {
		s.tap += rngLen
	}
	if s.feed--; s.feed < 0 {
		s.feed += rngLen
	}
	x := s.word(s.feed) + s.word(s.tap)
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *Source) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }
