// Package rs implements a systematic (k+p) Reed–Solomon erasure codec over
// GF(2^8), the "SLEC" building block of the paper. It is the from-scratch
// substitute for Intel ISA-L used in the paper's Figure 11 encoding
// throughput measurements, with ISA-L's split-nibble AVX2 multiply where
// the CPU has it (gf256.Apply), and supplies both levels of MLEC as well
// as the global-parity stage of LRC.
//
// The encoding matrix is the extended-Vandermonde construction: build a
// (k+p)×k Vandermonde matrix over distinct evaluation points, then
// row-reduce so the top k×k block is the identity. Any k of the k+p shards
// then suffice to reconstruct all shards (MDS property), which the tests
// verify exhaustively for small codes and probabilistically for large ones.
package rs

import (
	"errors"
	"fmt"

	"mlec/internal/gf256"
)

// Codec is a systematic Reed–Solomon encoder/decoder for k data shards and
// p parity shards: the Reed–Solomon generator handed to gf256.Code, which
// does the validating, encoding, verifying and decoding. A Codec is
// immutable after construction and safe for concurrent use.
type Codec struct {
	k, p int
	gen  [][]byte // the p parity rows of the encoding matrix, k coefficients each
	code *gf256.Code
}

// Limits of the GF(2^8) construction: k+p shards must have distinct
// evaluation points among the 256 field elements.
const MaxShards = 256

var (
	// ErrTooFewShards is returned by Reconstruct when fewer than k
	// shards are present.
	ErrTooFewShards = errors.New("rs: fewer than k shards available")
	// ErrShardSize is returned when shard lengths are inconsistent or
	// zero.
	ErrShardSize = errors.New("rs: inconsistent shard sizes")
)

// New returns a codec for k data and p parity shards.
func New(k, p int) (*Codec, error) {
	if k <= 0 || p < 0 {
		return nil, fmt.Errorf("rs: invalid parameters k=%d p=%d", k, p)
	}
	if k+p > MaxShards {
		return nil, fmt.Errorf("rs: k+p = %d exceeds %d", k+p, MaxShards)
	}
	gen, err := gf256.ParityRows(k, p)
	if err != nil {
		return nil, fmt.Errorf("rs: internal construction failure: %w", err)
	}
	return &Codec{k: k, p: p, gen: gen, code: gf256.NewCode("rs", k, gen, ErrShardSize, ErrTooFewShards)}, nil
}

// DataShards returns k.
func (c *Codec) DataShards() int { return c.k }

// ParityShards returns p.
func (c *Codec) ParityShards() int { return c.p }

// TotalShards returns k+p.
func (c *Codec) TotalShards() int { return c.k + c.p }

// ParityRow returns the encoding-matrix row for parity shard i (0 ≤ i < p):
// parity_i = Σ_j row[j]·data_j. The slice aliases codec state; do not
// modify.
func (c *Codec) ParityRow(i int) ([]byte, error) {
	if i < 0 || i >= c.p {
		return nil, fmt.Errorf("rs: parity row %d out of range [0,%d)", i, c.p)
	}
	return c.gen[i], nil
}

// Encode computes the p parity shards from the k data shards in place:
// shards[0:k] are inputs, shards[k:k+p] are outputs (must be allocated to
// the same length as the data shards). It does not allocate.
func (c *Codec) Encode(shards [][]byte) error { return c.code.Encode(shards) }

// Verify reports whether the parity shards are consistent with the data
// shards.
func (c *Codec) Verify(shards [][]byte) (bool, error) { return c.code.Verify(shards) }

// Reconstruct rebuilds all missing shards (entries that are nil) in place.
// At least k shards must be present. Present shards are never modified.
func (c *Codec) Reconstruct(shards [][]byte) error { return c.code.Reconstruct(shards, false) }

// ReconstructData rebuilds only the missing data shards, leaving missing
// parity shards nil. This is the minimum work needed to serve a read.
func (c *Codec) ReconstructData(shards [][]byte) error { return c.code.Reconstruct(shards, true) }
