package rngsplit

import (
	"math"
	"math/rand"
	"testing"
)

// edgeSeeds covers math/rand's seed normalisation: zero (replaced by a
// fixed seed), negatives, multiples of 2^31−1 (which normalise to zero),
// the fixed seed itself and both ends of int64.
var edgeSeeds = []int64{
	0, 1, -1, 42, -42, 89482311,
	lcgMod, -lcgMod, 2 * lcgMod, -7 * lcgMod, lcgMod - 1, lcgMod + 1,
	math.MaxInt64, math.MinInt64, math.MinInt64 + 1,
	0x5eed ^ 0x7fffffff12345678, -0x51717,
}

// sameDraws compares n draws of src against rand.NewSource(seed),
// alternating Uint64 and Int63 as rand.Rand does.
func sameDraws(t testing.TB, src *Source, seed int64, n int) {
	t.Helper()
	ref := rand.NewSource(seed).(rand.Source64)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			if got, want := src.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d draw %d: Uint64 %#x, math/rand %#x", seed, i, got, want)
			}
		} else if got, want := src.Int63(), ref.Int63(); got != want {
			t.Fatalf("seed %d draw %d: Int63 %#x, math/rand %#x", seed, i, got, want)
		}
	}
}

// TestSourceMatchesMathRand: 3,000 draws run the register round five
// times, so every word is read seeded, then read again after its
// feedback update.
func TestSourceMatchesMathRand(t *testing.T) {
	for _, seed := range edgeSeeds {
		sameDraws(t, NewSource(seed), seed, 3000)
	}
	for seed := int64(-500); seed < 500; seed++ {
		sameDraws(t, NewSource(seed*0x9e3779b9), seed*0x9e3779b9, 40)
	}
}

// TestSourceReseed: a Source reseeded mid-stream, before or after the
// register wrapped, starts over exactly as a fresh math/rand source.
func TestSourceReseed(t *testing.T) {
	src := NewSource(7)
	for i, seed := range edgeSeeds {
		for j := 0; j < 100*i; j++ {
			src.Uint64()
		}
		src.Seed(seed)
		sameDraws(t, src, seed, 1000)
	}
}

// TestSourceUnderRand: rand.Rand over a Source reseeded through
// Rand.Seed — the way a splitting worker uses it — makes the variates
// rand.New(rand.NewSource(seed)) makes.
func TestSourceUnderRand(t *testing.T) {
	rng := rand.New(NewSource(0))
	for _, seed := range edgeSeeds {
		rng.Seed(seed)
		ref := rand.New(rand.NewSource(seed))
		for i := 0; i < 200; i++ {
			if got, want := rng.Intn(120), ref.Intn(120); got != want {
				t.Fatalf("seed %d draw %d: Intn %d, math/rand %d", seed, i, got, want)
			}
			if got, want := rng.ExpFloat64(), ref.ExpFloat64(); got != want {
				t.Fatalf("seed %d draw %d: ExpFloat64 %g, math/rand %g", seed, i, got, want)
			}
			if got, want := rng.Float64(), ref.Float64(); got != want {
				t.Fatalf("seed %d draw %d: Float64 %g, math/rand %g", seed, i, got, want)
			}
		}
	}
}

func TestSourceAllocs(t *testing.T) {
	src := NewSource(1)
	seed := int64(0)
	if allocs := testing.AllocsPerRun(100, func() {
		seed++
		src.Seed(seed)
		for i := 0; i < 10; i++ {
			src.Uint64()
		}
	}); allocs != 0 {
		t.Fatalf("Seed + 10 draws: %g allocs, want 0", allocs)
	}
}

// FuzzSourceMatchesMathRand: for any seed, any reseed and any stream
// length, the Source's draws are math/rand's.
func FuzzSourceMatchesMathRand(f *testing.F) {
	for i, seed := range edgeSeeds {
		f.Add(seed, edgeSeeds[len(edgeSeeds)-1-i], uint16(100*i))
	}
	f.Fuzz(func(t *testing.T, seed, reseed int64, n uint16) {
		src := NewSource(seed)
		sameDraws(t, src, seed, int(n)%2000)
		src.Seed(reseed)
		sameDraws(t, src, reseed, 700)
	})
}
