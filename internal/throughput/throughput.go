// Package throughput measures single-goroutine erasure-encoding
// throughput of the real codecs — the reproduction of the paper's
// Figure 11 (ISA-L on one Xeon core) and the throughput axes of
// Figures 12 and 15.
//
// A figure lists its codes, and Measure times them by work, not by the
// clock: one round of a code encodes at least WorkBytes of data in whole
// Encode calls, every code is timed once per round for Rounds rounds,
// and a code's rate is its fastest round. A host transient that slows a
// stretch of rounds then either slows every code alike or leaves each
// code a clean round, where back-to-back repeats of one code would all
// fall inside it.
//
// The kernel under the codecs (gf256.Apply) multiplies with GFNI affine
// instructions, up to eight parity rows per pass, where the CPU has
// GFNI, with ISA-L's split-nibble AVX2 shuffles where it has AVX2 only,
// and with Go table loops elsewhere, so absolute numbers depend on the
// host; the shape —
// throughput falling with p (parity work is O(k·p) per stripe) and with
// wide k (cache pressure), MLEC beating wide SLEC at equal durability —
// depends only on the arithmetic volume, which is identical.
package throughput

import (
	"fmt"
	"slices"
	"time"

	"mlec/internal/lrc"
	"mlec/internal/placement"
	"mlec/internal/rs"
)

// DefaultShardBytes is the shard size used by the measurements; with a
// (k+p) stripe this keeps the working set in the same cache regime the
// paper's 128 KiB chunks produce.
const DefaultShardBytes = 128 << 10

// WorkBytes is the least data one round of one code encodes. At the
// 2–30 GB/s the kernel reaches, 2 MiB is a round of 0.07–1 ms: far above
// the clock's resolution and an encode call's fixed cost, and shorter
// than a scheduler time slice, so the fastest of Rounds rounds is seldom
// preempted; the full Figure 11 grid (130 codes) then takes about a
// quarter of a second.
const WorkBytes = 2 << 20

// Rounds is how many times each code is timed. The first round runs
// cold (tables built into cache, pages faulted); keeping the fastest
// round lets it stand in for a warm-up call.
const Rounds = 5

// Code names one timed encoder: a (K+P) Reed–Solomon code split across
// Workers goroutines when L == 0, a (K, L, P) LRC otherwise (an LRC has
// at least one local group).
type Code struct{ K, L, P, Workers int }

// RS names the single-goroutine encoder of a (k+p) Reed–Solomon code.
func RS(k, p int) Code { return RSParallel(k, p, 1) }

// RSParallel names the (k+p) Reed–Solomon encoder with each encode split
// across `workers` goroutines — the paper's "more CPU cores" option for
// raising encoding throughput (§5.1.2 F#2). Scaling is imperfect (memory
// bandwidth and split overhead), which the ablation-cores experiment
// quantifies.
func RSParallel(k, p, workers int) Code { return Code{K: k, P: p, Workers: workers} }

// LRC names the single-goroutine encoder of a (k, l, r) LRC (both
// encoding stages).
func LRC(k, l, r int) Code { return Code{K: k, L: l, P: r, Workers: 1} }

// MLECCodes names the two levels' RS encoders of each MLEC code, network
// level first.
func MLECCodes(configs ...placement.Params) []Code {
	var codes []Code
	for _, p := range configs {
		codes = append(codes, RS(p.KN, p.PN), RS(p.KL, p.PL))
	}
	return codes
}

// Table holds measured encoding throughput, in bytes of data per second,
// by code.
type Table map[Code]float64

// MLEC returns the end-to-end single-core MLEC encoding throughput in
// bytes of user data per second: the two levels' RS rates, composed.
func (t Table) MLEC(params placement.Params) float64 {
	return Compose(params, t[RS(params.KN, params.PN)], t[RS(params.KL, params.PL)])
}

// Compose combines the network level's rate tn and the local level's
// rate tl, each per byte of its own data, into MLEC's rate per user byte.
// The network level's data is the user data. The local level encodes
// all kn+pn network chunks, so it ingests (kn+pn)/kn bytes per user byte
// and runs at tl·kn/(kn+pn) per user byte. One core runs both stages, so
// their per-byte times add: the rates compose harmonically (a zero rate
// composes to zero).
func Compose(params placement.Params, tn, tl float64) float64 {
	local := tl * float64(params.KN) / float64(params.KN+params.PN)
	return 1 / (1/tn + 1/local)
}

// Measure times each distinct code of codes, in the order listed, over
// shards of shardBytes bytes that every code shares, and returns their
// rates. It fails on a non-positive shard size or a code its codec
// rejects.
func Measure(shardBytes int, codes ...Code) (Table, error) {
	if shardBytes <= 0 {
		return nil, fmt.Errorf("throughput: shard size %d bytes must be positive", shardBytes)
	}
	var encoders []encoder
	width := 0
	for _, c := range codes {
		if slices.ContainsFunc(encoders, func(e encoder) bool { return e.code == c }) {
			continue
		}
		e, err := newEncoder(c)
		if err != nil {
			return nil, fmt.Errorf("throughput: %+v: %w", c, err)
		}
		encoders = append(encoders, e)
		width = max(width, e.width)
	}
	return timeRounds(encoders, newShards(width, shardBytes), shardBytes)
}

// encoder is one distinct code's encode over its first width shards.
type encoder struct {
	code   Code
	width  int
	encode func(shards [][]byte) error
}

func newEncoder(c Code) (encoder, error) {
	if c.L > 0 {
		codec, err := lrc.New(c.K, c.L, c.P)
		if err != nil {
			return encoder{}, err
		}
		return encoder{c, codec.TotalShards(), codec.Encode}, nil
	}
	if c.P == 0 {
		return encoder{}, fmt.Errorf("p=0 has nothing to encode")
	}
	codec, err := rs.New(c.K, c.P)
	if err != nil {
		return encoder{}, err
	}
	encode := codec.Encode
	if c.Workers > 1 {
		encode = func(shards [][]byte) error { return codec.EncodeParallel(shards, c.Workers) }
	}
	return encoder{c, c.K + c.P, encode}, nil
}

// timeRounds times the encoders in Rounds rounds, round r of every code
// before round r+1 of any. A code's round is ⌈WorkBytes ÷ (k·shardBytes)⌉
// encode calls, and its rate is the data of its fastest round (k shards
// a call) per second.
func timeRounds(encoders []encoder, shards [][]byte, shardBytes int) (Table, error) {
	t := Table{}
	for range Rounds {
		for _, e := range encoders {
			calls := (WorkBytes + e.code.K*shardBytes - 1) / (e.code.K * shardBytes)
			start := time.Now()
			for range calls {
				if err := e.encode(shards[:e.width]); err != nil {
					return nil, err
				}
			}
			if v := float64(calls*e.code.K*shardBytes) / time.Since(start).Seconds(); v > t[e.code] {
				t[e.code] = v
			}
		}
	}
	return t, nil
}

// newShards returns width shards of shardBytes bytes, byte j of shard i
// being byte(i·31 + j). Shard i is shard i−1 moved 31 bytes to the left,
// so all but its last 31 bytes are one copy.
func newShards(width, shardBytes int) [][]byte {
	shards := make([][]byte, width)
	for i := range shards {
		shard := make([]byte, shardBytes)
		j := 0
		if i > 0 {
			j = copy(shard, shards[i-1][min(31, shardBytes):])
		}
		for ; j < shardBytes; j++ {
			shard[j] = byte(i*31 + j)
		}
		shards[i] = shard
	}
	return shards
}
