// Package rngsplit derives per-worker pseudorandom streams from a single
// master seed. Monte-Carlo code in this repository fans trials out across
// goroutines; each worker needs its own *rand.Rand (sharing one is a data
// race, and locking one makes draw order depend on goroutine scheduling,
// destroying reproducibility). Deriving worker seeds by simple arithmetic
// (seed+workerID, seed^workerID) produces correlated low-bit patterns
// across streams; Derive instead mixes the pair through splitmix64 so
// adjacent worker IDs yield statistically unrelated sequences while
// remaining a pure function of (seed, workerID).
//
// Source is math/rand's generator with lazy seeding: the same draws as
// rand.NewSource, for a driver that reseeds one generator per short
// stream (a splitting trajectory) and would otherwise spend most of its
// time filling a 607-word register it barely reads.
package rngsplit

import "math/rand"

// Mix returns a well-mixed derived seed for stream id under the master
// seed. It is splitmix64 applied to the pair: the id advances the
// splitmix64 counter from the seed, then the result is finalized with
// the fmix64 avalanche so that consecutive ids map to uncorrelated
// outputs. Mix is a pure function — the same (seed, id) always yields
// the same value on every platform.
func Mix(seed int64, id int) int64 {
	z := uint64(seed) + uint64(id+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Derive returns a fresh *rand.Rand seeded with Mix(seed, id). Each
// worker (or trial, or simulation domain) should get its own id; the
// returned generator must stay confined to one goroutine.
func Derive(seed int64, id int) *rand.Rand {
	return rand.New(rand.NewSource(Mix(seed, id)))
}
