package poolsim

import (
	"context"
	"math"
	"reflect"
	"testing"

	"mlec/internal/failure"
)

// The tests in this file hold the three single-pool drivers to the exact
// results they produced before they were moved onto Machine: every
// float as its bit pattern, every catastrophe sample through a digest.
// The drivers' contract is the order of rng draws and of Engine.Schedule
// calls, so a refactor that keeps it moves none of these numbers, and
// one that breaks it moves nearly all of them.

// fnv folds 64-bit words into an FNV-1a digest, low byte first.
type fnv uint64

func newFNV() fnv { return 14695981039346656037 }

func (h *fnv) word(v uint64) {
	for b := 0; b < 64; b += 8 {
		*h = (*h ^ fnv(v>>b&0xff)) * 1099511628211
	}
}

// samplesDigest covers every field of every catastrophe sample, in order.
func samplesDigest(samples []CatSample) uint64 {
	h := newFNV()
	for _, s := range samples {
		h.word(math.Float64bits(s.TimeHours))
		h.word(uint64(s.FailedDisks))
		h.word(uint64(s.LostStripes))
		for _, n := range s.Profile {
			h.word(uint64(n))
		}
	}
	return uint64(h)
}

func floatBits(vs ...float64) []uint64 {
	out := make([]uint64, len(vs))
	for i, v := range vs {
		out[i] = math.Float64bits(v)
	}
	return out
}

func TestSplitBitsPinned(t *testing.T) {
	type pin struct {
		clustered    bool
		seed         int64
		levelProbs   []uint64
		catFractions []uint64
		rateLoHi     []uint64 // CatRatePerPoolHour, CatRateLo, CatRateHi
		samples      int
		digest       uint64
	}
	pins := []pin{
		{clustered: true, seed: 13,
			levelProbs:   []uint64{0x3fb147ae147ae148, 0x3fb16872b020c49c, 0x3fb26e978d4fdf3b, 0x3fb1cac083126e98, 0x3fab645a1cac0831},
			catFractions: []uint64{0x0, 0x3fa16872b020c49c, 0x3f9999999999999a, 0x3f970a3d70a3d70a, 0x3f90e5604189374c},
			rateLoHi:     []uint64{0x3ecd08ecf8fe82aa, 0x3ec66bf47c9deec1, 0x3ed1d33e8380eb4f},
			samples:      196, digest: 0x58d1dbf7949616c},
		{clustered: true, seed: 29,
			levelProbs:   []uint64{0x3fb2f1a9fbe76c8b, 0x3fb22d0e56041893, 0x3fb1a9fbe76c8b44, 0x3fadf3b645a1cac1, 0x3fb189374bc6a7f0},
			catFractions: []uint64{0x0, 0x3fa0e5604189374c, 0x3f970a3d70a3d70a, 0x3f970a3d70a3d70a, 0x3f989374bc6a7efa},
			rateLoHi:     []uint64{0x3eceed3d53822158, 0x3ec7c7aaf5014e1a, 0x3ed309bc7a9aaedd},
			samples:      204, digest: 0x4e7d9e298bacbdce},
		{clustered: false, seed: 13,
			levelProbs:   []uint64{0x3fb189374bc6a7f0, 0x3fbcac083126e979, 0x3fbac083126e978d, 0x3fbd916872b020c5, 0x3fbc28f5c28f5c29},
			catFractions: []uint64{0x0, 0x3fa4fdf3b645a1cb, 0x3fa74bc6a7ef9db2, 0x3faa5e353f7ced91, 0x3fa16872b020c49c},
			rateLoHi:     []uint64{0x3ee2c5e5f38824a9, 0x3ede2f91b4620c73, 0x3ee67636f0ba73a8},
			samples:      344, digest: 0xf0d744547f592543},
		{clustered: false, seed: 29,
			levelProbs:   []uint64{0x3fb2f1a9fbe76c8b, 0x3fb89374bc6a7efa, 0x3fbc083126e978d5, 0x3fbb851eb851eb85, 0x3fbb020c49ba5e35},
			catFractions: []uint64{0x0, 0x3fa3333333333333, 0x3fa47ae147ae147b, 0x3fa4fdf3b645a1cb, 0x3fa4bc6a7ef9db23},
			rateLoHi:     []uint64{0x3ee24182b836e6e1, 0x3edce6a63a04274c, 0x3ee611bfbf2b2fd1},
			samples:      318, digest: 0x864ff2271f336aec},
	}
	ttf := failure.MustExponentialAFR(0.8)
	for _, p := range pins {
		res, err := SplitContext(context.Background(), hotConfig(p.clustered), ttf, SplitConfig{TrajectoriesPerLevel: 2000, Seed: p.seed})
		if err != nil {
			t.Fatal(err)
		}
		got := pin{
			clustered: p.clustered, seed: p.seed,
			levelProbs:   floatBits(res.LevelProbs...),
			catFractions: floatBits(res.CatFractions...),
			rateLoHi:     floatBits(res.CatRatePerPoolHour, res.CatRateLo, res.CatRateHi),
			samples:      len(res.Samples),
			digest:       samplesDigest(res.Samples),
		}
		if !reflect.DeepEqual(got, p) {
			t.Errorf("split result moved\n got %#v\nwant %#v", got, p)
		}
	}
}

func TestLongRunStatsPinned(t *testing.T) {
	type pin struct {
		name                      string
		simYears                  uint64
		failures, cats, maxConcur int
		digest                    uint64
	}
	exp := failure.MustExponentialAFR(0.8)
	runs := []struct {
		pin pin
		run func() (RunStats, error)
	}{
		{pin{"longrun clustered", 0x4097700000000000, 19265, 49, 3, 0x8e3ff3b1c9dfa57a},
			func() (RunStats, error) { return LongRunContext(context.Background(), hotConfig(true), exp, 1500, 11) }},
		{pin{"longrun declustered", 0x4097700000000000, 38617, 105, 5, 0xc7b32936b21838c2},
			func() (RunStats, error) { return LongRunContext(context.Background(), hotConfig(false), exp, 1500, 12) }},
		{pin{"longrun weibull", 0x4097700000000000, 11577, 13, 3, 0x53073931bf479aa2},
			func() (RunStats, error) {
				return LongRunContext(context.Background(), hotConfig(true), failure.Weibull{Shape: 1.5, ScaleHours: 10000}, 1500, 3)
			}},
		{pin{"replay clustered", 0x4097700000000000, 19232, 41, 3, 0x6b00a2de2879f403},
			func() (RunStats, error) {
				return ReplayTraceContext(context.Background(), hotConfig(true), failure.GenerateTrace(8, 1500, exp, 31), 1500, 31)
			}},
		{pin{"replay declustered", 0x4097700000000000, 38767, 96, 5, 0x47d84aabeccd6b96},
			func() (RunStats, error) {
				return ReplayTraceContext(context.Background(), hotConfig(false), failure.GenerateTrace(16, 1500, exp, 32), 1500, 32)
			}},
	}
	for _, r := range runs {
		s, err := r.run()
		if err != nil {
			t.Fatal(err)
		}
		if s.CatastrophicCount != len(s.Samples) {
			t.Errorf("%s: %d catastrophes, %d samples", r.pin.name, s.CatastrophicCount, len(s.Samples))
		}
		got := pin{r.pin.name, math.Float64bits(s.SimYears), s.DiskFailures, s.CatastrophicCount,
			s.MaxConcurrentFailures, samplesDigest(s.Samples)}
		if got != r.pin {
			t.Errorf("run stats moved\n got %#v\nwant %#v", got, r.pin)
		}
	}
}
