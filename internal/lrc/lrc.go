// Package lrc implements an Azure-style (k, l, r) Locally Repairable Code
// (Huang et al., ATC '12), the comparison code of the paper's Section 5.2.
//
// A (k,l,r) LRC splits the k data chunks into l equal local groups and, in
// the first stage, computes one XOR local parity per group; in the second
// stage it computes r global parities from all k data chunks using
// Reed–Solomon rows. Total chunks per stripe: k + l + r.
//
// Decodability follows the Maximally Recoverable property of the Azure
// construction for the configurations the paper uses: any single failure
// inside a group repairs locally from k/l + 1 chunks; larger failure sets
// decode through the combined parity system when the information-flow
// condition holds. This implementation hands its generator — l XOR rows,
// then r Reed–Solomon rows — to gf256.Code, which decodes by solving the
// linear system over GF(2^8) restricted to the surviving chunks, so a
// pattern is recoverable exactly when the survivor equations have full
// rank — which the tests compare against the combinatorial criterion.
// Local repair is not a special case there: a lone loss in a group
// pivots on the group's local parity and is rebuilt by XOR alone.
package lrc

import (
	"errors"
	"fmt"

	"mlec/internal/gf256"
)

// Codec is a (k, l, r) locally repairable codec. Shard layout:
//
//	[0, k)          data chunks, group g holds chunks [g·k/l, (g+1)·k/l)
//	[k, k+l)        local parities, one per group
//	[k+l, k+l+r)    global parities
type Codec struct {
	k, l, r   int
	groupSize int
	code      *gf256.Code
}

var (
	// ErrUnrecoverable is returned when the erasure pattern exceeds the
	// code's recovery capability (survivor system is rank-deficient).
	ErrUnrecoverable = errors.New("lrc: erasure pattern not recoverable")
	// ErrShardSize mirrors rs.ErrShardSize.
	ErrShardSize = errors.New("lrc: inconsistent shard sizes")
)

// New returns a (k, l, r) codec. k must be divisible by l.
func New(k, l, r int) (*Codec, error) {
	if k <= 0 || l <= 0 || r < 0 {
		return nil, fmt.Errorf("lrc: invalid parameters k=%d l=%d r=%d", k, l, r)
	}
	if k%l != 0 {
		return nil, fmt.Errorf("lrc: k=%d not divisible by l=%d", k, l)
	}
	if k+l+r > 256 {
		return nil, fmt.Errorf("lrc: stripe width %d exceeds 256", k+l+r)
	}
	c := &Codec{k: k, l: l, r: r, groupSize: k / l}
	// Local parities: XOR over each group.
	gen := make([][]byte, l, l+r)
	for g := range gen {
		gen[g] = make([]byte, k)
		for j := g * c.groupSize; j < (g+1)*c.groupSize; j++ {
			gen[g][j] = 1
		}
	}
	// Global parities: the parity rows of a systematic (k + r) RS code.
	// This gives the global parities the MDS property over data chunks
	// and, together with the XOR locals, the recoverability profile of
	// the Azure LRC for the paper's configurations.
	global, err := gf256.ParityRows(k, r)
	if err != nil {
		return nil, fmt.Errorf("lrc: construction failure: %w", err)
	}
	c.code = gf256.NewCode("lrc", k, append(gen, global...), ErrShardSize, ErrUnrecoverable)
	return c, nil
}

// MustNew is New but panics on error.
func MustNew(k, l, r int) *Codec {
	c, err := New(k, l, r)
	if err != nil {
		panic(err)
	}
	return c
}

// DataShards returns k.
func (c *Codec) DataShards() int { return c.k }

// LocalGroups returns l.
func (c *Codec) LocalGroups() int { return c.l }

// GlobalParities returns r.
func (c *Codec) GlobalParities() int { return c.r }

// TotalShards returns k+l+r.
func (c *Codec) TotalShards() int { return c.k + c.l + c.r }

// GroupSize returns k/l, the number of data chunks per local group.
func (c *Codec) GroupSize() int { return c.groupSize }

// GroupOf returns the local group of data shard i, or -1 for parities.
func (c *Codec) GroupOf(i int) int {
	if i < 0 || i >= c.k {
		return -1
	}
	return i / c.groupSize
}

// StorageOverhead returns (l+r)/k, the parity capacity overhead.
func (c *Codec) StorageOverhead() float64 {
	return float64(c.l+c.r) / float64(c.k)
}

// Encode fills shards[k:k+l+r] from shards[0:k].
func (c *Codec) Encode(shards [][]byte) error { return c.code.Encode(shards) }

// Verify reports whether all parities are consistent with the data.
func (c *Codec) Verify(shards [][]byte) (bool, error) { return c.code.Verify(shards) }

// LocalRepairable reports whether missing shard idx can be repaired purely
// within its local group (exactly one missing chunk among the group's data
// chunks plus its local parity).
func (c *Codec) LocalRepairable(shards [][]byte, idx int) bool {
	g := -1
	switch {
	case len(shards) != c.TotalShards():
		return false
	case idx < 0 || idx >= c.k+c.l:
		return false // global parities have no local group
	case idx < c.k:
		g = idx / c.groupSize
	default:
		g = idx - c.k
	}
	missing := 0
	for j := g * c.groupSize; j < (g+1)*c.groupSize; j++ {
		if shards[j] == nil {
			missing++
		}
	}
	if shards[c.k+g] == nil {
		missing++
	}
	return missing == 1 && shards[idx] == nil
}

// Reconstruct rebuilds all missing shards in place; a group with a single
// loss is rebuilt by XOR within the group. It returns ErrUnrecoverable,
// leaving shards as they were, when the pattern exceeds the code's
// capability.
func (c *Codec) Reconstruct(shards [][]byte) error { return c.code.Reconstruct(shards, false) }
