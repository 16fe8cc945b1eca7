// Package throughput measures single-goroutine erasure-encoding
// throughput of the real codecs — the reproduction of the paper's
// Figure 11 (ISA-L on one Xeon core) and the throughput axes of
// Figures 12 and 15.
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
	"time"

	"mlec/internal/lrc"
	"mlec/internal/placement"
	"mlec/internal/rs"
)

// DefaultShardBytes is the shard size used by the measurements; with a
// (k+p) stripe this keeps the working set in the same cache regime the
// paper's 128 KiB chunks produce.
const DefaultShardBytes = 128 << 10

// Table times erasure codes' encoding throughput, each distinct code at
// most once. A rate depends on the code's shape and the kernel, not on
// where its chunks are placed, so the first lookup of a code runs its
// encoder in a loop for the table's budget and later lookups return the
// stored rate. Every code encodes the same shard buffers, grown to the
// widest code timed so far. A Table is not safe for concurrent use.
type Table struct {
	shardBytes int
	budget     time.Duration
	rates      map[code]float64
	shards     [][]byte
}

// code names one timed encoder: a (k+p) Reed–Solomon code split across
// `workers` goroutines when l == 0, a (k, l, p) LRC otherwise (an LRC has
// at least one local group).
type code struct{ k, l, p, workers int }

// NewTable returns an empty table that encodes shards of shardBytes bytes
// for at least budget per code. Every lookup that would time a code fails
// unless both are positive.
func NewTable(shardBytes int, budget time.Duration) *Table {
	return &Table{shardBytes: shardBytes, budget: budget, rates: map[code]float64{}}
}

// RS returns the single-goroutine encoding throughput of a (k+p)
// Reed–Solomon code in bytes of data per second.
func (t *Table) RS(k, p int) (float64, error) { return t.RSParallel(k, p, 1) }

// RSParallel is RS with each encode split across `workers` goroutines —
// the paper's "more CPU cores" option for raising encoding throughput
// (§5.1.2 F#2). Scaling is imperfect (memory bandwidth and split
// overhead), which the ablation-cores experiment quantifies.
func (t *Table) RSParallel(k, p, workers int) (float64, error) {
	c := code{k: k, p: p, workers: workers}
	if v, ok := t.rates[c]; ok {
		return v, nil
	}
	if p == 0 {
		return 0, fmt.Errorf("throughput: p=0 has nothing to encode")
	}
	codec, err := rs.New(k, p)
	if err != nil {
		return 0, err
	}
	encode := codec.Encode
	if workers > 1 {
		encode = func(shards [][]byte) error { return codec.EncodeParallel(shards, workers) }
	}
	return t.time(c, k+p, encode)
}

// LRC returns the single-goroutine encoding throughput of a (k, l, r)
// LRC in bytes of data per second (both encoding stages).
func (t *Table) LRC(k, l, r int) (float64, error) {
	c := code{k: k, l: l, p: r, workers: 1}
	if v, ok := t.rates[c]; ok {
		return v, nil
	}
	codec, err := lrc.New(k, l, r)
	if err != nil {
		return 0, err
	}
	return t.time(c, codec.TotalShards(), codec.Encode)
}

// MLEC returns the end-to-end single-core MLEC encoding throughput in
// bytes of user data per second: the two levels' RS rates, composed.
func (t *Table) MLEC(params placement.Params) (float64, error) {
	tn, err := t.RS(params.KN, params.PN)
	if err != nil {
		return 0, fmt.Errorf("throughput: network level: %w", err)
	}
	tl, err := t.RS(params.KL, params.PL)
	if err != nil {
		return 0, fmt.Errorf("throughput: local level: %w", err)
	}
	return Compose(params, tn, tl), nil
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

// time runs encode over the first width shards in a loop for at least the
// table's budget, after one warm-up call (builds tables into cache, faults
// pages), and stores and returns the data-ingest rate (c.k data shards
// per call) in bytes/second.
func (t *Table) time(c code, width int, encode func(shards [][]byte) error) (float64, error) {
	if t.shardBytes <= 0 || t.budget <= 0 {
		return 0, fmt.Errorf("throughput: shard size %d bytes and budget %v must be positive", t.shardBytes, t.budget)
	}
	for i := len(t.shards); i < width; i++ {
		shard := make([]byte, t.shardBytes)
		for j := range shard {
			shard[j] = byte(i*31 + j)
		}
		t.shards = append(t.shards, shard)
	}
	shards := t.shards[:width]
	if err := encode(shards); err != nil {
		return 0, err
	}
	var iters int
	start := time.Now()
	var elapsed time.Duration
	for elapsed < t.budget {
		if err := encode(shards); err != nil {
			return 0, err
		}
		iters++
		elapsed = time.Since(start)
	}
	v := float64(iters) * float64(c.k) * float64(t.shardBytes) / elapsed.Seconds()
	t.rates[c] = v
	return v, nil
}
