package gf256

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
)

// Code is a systematic linear erasure code over GF(2^8): a stripe is k
// data shards followed by one parity shard per generator row, parity_i =
// Σ_j gen[i][j]·data_j. Reed–Solomon (package rs) and the locally
// repairable code (package lrc) are two generators for it; validation,
// encoding, verification and erasure decoding are written here once, on
// top of Apply. A Code is immutable and safe for concurrent use.
type Code struct {
	k    int
	gen  [][]byte
	name string
	// The owning codec's sentinels: errSize for shards of unequal or zero
	// length, errRank for an erasure pattern the surviving shards do not
	// determine.
	errSize, errRank error
}

// scratches pools one Verify or Reconstruct call's working memory across
// codes, each scratch grown to the shapes it meets: once warm, Verify
// allocates nothing and Reconstruct only the shards it rebuilds. spare
// holds the scratch returned last, outside the pool: a sync.Pool keeps an
// item on the P that returned it and drops it at the second garbage
// collection after, so a caller that resumes on another P after a
// collection would otherwise grow a shard-sized parity buffer afresh.
var (
	scratches = sync.Pool{New: func() any { return new(scratch) }}
	spare     atomic.Pointer[scratch]
)

// getScratch takes the spare scratch, or one from the pool.
func getScratch() *scratch {
	if s := spare.Swap(nil); s != nil {
		return s
	}
	return scratches.Get().(*scratch)
}

// putScratch makes s the spare, or returns it to the pool when a spare is
// already held.
func putScratch(s *scratch) {
	if !spare.CompareAndSwap(nil, s) {
		scratches.Put(s)
	}
}

type scratch struct {
	idx                  []int    // decodeRows: lost data shards, then surviving parity shards
	mat, coef, parity    []byte   // decodeRows' elimination matrix and decode rows; Verify's parity
	dec, present, header [][]byte // decode-row headers, Reconstruct's survivors, rebuild's rows and outputs
}

// resize returns *buf at length n, holding what the last call left.
func resize[T any](buf *[]T, n int) []T {
	if cap(*buf) < n {
		*buf = make([]T, n)
	}
	*buf = (*buf)[:n]
	return *buf
}

// NewCode returns the code with k data shards and parity generator gen
// (one k-coefficient row per parity shard; gen may be empty). name
// prefixes shape errors; errSize and errRank are returned as they are.
func NewCode(name string, k int, gen [][]byte, errSize, errRank error) *Code {
	return &Code{k: k, gen: gen, name: name, errSize: errSize, errRank: errRank}
}

// ParityRows returns the p parity rows of the systematic k+p Reed–Solomon
// generator: the extended-Vandermonde construction builds a (k+p)×k
// Vandermonde matrix V over distinct evaluation points and normalizes by
// the inverse of its top k×k block, so the top becomes the identity and
// rows k…k+p-1, returned here, generate the parities. Any k of the k+p
// shards then determine the rest (MDS).
func ParityRows(k, p int) ([][]byte, error) {
	if p == 0 {
		return nil, nil
	}
	v := vandermonde(k+p, k)
	topInv, err := v.SubMatrix(0, k, 0, k).Invert()
	if err != nil {
		// Cannot happen: distinct evaluation points make the block
		// non-singular.
		return nil, err
	}
	m := v.SubMatrix(k, k+p, 0, k).Mul(topInv)
	rows := make([][]byte, p)
	for i := range rows {
		rows[i] = m.Row(i)
	}
	return rows, nil
}

// ShardSize validates a shard set — k+len(gen) entries of one non-zero
// length, nil marking a missing shard unless wantAll — and returns that
// length.
func (c *Code) ShardSize(shards [][]byte, wantAll bool) (int, error) {
	if len(shards) != c.k+len(c.gen) {
		return 0, fmt.Errorf("%s: got %d shards, want %d", c.name, len(shards), c.k+len(c.gen))
	}
	size := -1
	for i, s := range shards {
		if s == nil {
			if wantAll {
				return 0, fmt.Errorf("%s: shard %d is nil", c.name, i)
			}
			continue
		}
		if len(s) == 0 || size >= 0 && len(s) != size {
			return 0, c.errSize
		}
		size = len(s)
	}
	if size < 0 {
		return 0, c.errRank // nothing survived
	}
	return size, nil
}

// Encode computes the parity shards from the data shards in place:
// shards[:k] are inputs, shards[k:] are overwritten.
//
//mlec:hot steady-state encode path; zero allocations per call
func (c *Code) Encode(shards [][]byte) error {
	if _, err := c.ShardSize(shards, true); err != nil {
		return err
	}
	Apply(c.gen, shards[:c.k], shards[c.k:])
	return nil
}

// Verify reports whether the parity shards are consistent with the data
// shards. Parities are recomputed one at a time into one pooled shard.
func (c *Code) Verify(shards [][]byte) (bool, error) {
	size, err := c.ShardSize(shards, true)
	if err != nil {
		return false, err
	}
	s := getScratch()
	defer putScratch(s)
	out := [][]byte{resize(&s.parity, size)}
	for i, want := range shards[c.k:] {
		Apply(c.gen[i:i+1], shards[:c.k], out)
		if !bytes.Equal(out[0], want) {
			return false, nil
		}
	}
	return true, nil
}

// Reconstruct rebuilds the missing (nil) shards in place — only the data
// shards if dataOnly — and never modifies a present one. It returns
// errRank, with shards untouched, when the survivors do not determine
// the missing data.
//
// With the data shards as unknowns only the missing ones need solving:
// u unknowns against the surviving parity equations, u at most the
// number of parities, in place of a k×k inversion. decodeRows does that
// on coefficients alone; the shards are then touched by two Apply calls,
// one for all missing data and one for all missing parity.
func (c *Code) Reconstruct(shards [][]byte, dataOnly bool) error {
	size, err := c.ShardSize(shards, false)
	if err != nil {
		return err
	}
	s := getScratch()
	defer func() { clear(s.present); clear(s.header[:cap(s.header)]); putScratch(s) }() // keep no caller's shard
	data, parity := shards[:c.k], shards[c.k:]
	dec, err := c.decodeRows(s, shards)
	if err != nil {
		return err
	}
	if dec != nil {
		s.present = s.present[:0]
		for _, sh := range shards {
			if sh != nil {
				s.present = append(s.present, sh)
			}
		}
		s.rebuild(data, dec, s.present, size)
	}
	if !dataOnly {
		s.rebuild(parity, c.gen, data, size)
	}
	return nil
}

// rebuild replaces every nil entry of dst by a new shard of size bytes:
// entry i becomes rows[i] × in.
func (s *scratch) rebuild(dst, rows, in [][]byte, size int) {
	n := countNil(dst)
	hdr := resize(&s.header, 2*n)
	sel, out := hdr[:n], hdr[n:]
	n = 0
	for i, sh := range dst {
		if sh == nil {
			dst[i] = make([]byte, size)
			sel[n], out[n] = rows[i], dst[i]
			n++
		}
	}
	Apply(sel, in, out)
}

func countNil(shards [][]byte) (n int) {
	for _, s := range shards {
		if s == nil {
			n++
		}
	}
	return n
}

// decodeRows returns, indexed like the data shards, one row for each
// missing one that expresses it as a combination of the present shards
// taken in stripe order (one coefficient per non-nil shard); nil when no
// data shard is missing.
//
// Each surviving parity i is an equation Σ_{j lost} gen[i][j]·x_j =
// parity_i + Σ_{j present} gen[i][j]·data_j. Gauss–Jordan on [A | I] — A
// the generator restricted to surviving rows and lost columns — leaves
// in the right half, row by row, the weights with which the equations
// combine into each x_j; pushing those weights through the right-hand
// sides gives the coefficients on the present data. Pivots are taken in
// row order, so a lone loss in an LRC group pivots on its local parity:
// its row then has ones on the group and zeros elsewhere, and Apply runs
// it as the XOR a local repair is. For an MDS generator every square
// block of A is regular and the first u survivors are the pivots.
func (c *Code) decodeRows(s *scratch, shards [][]byte) ([][]byte, error) {
	data := shards[:c.k]
	u := countNil(data)
	if u == 0 {
		return nil, nil
	}
	idx := s.idx[:0]
	for i, sh := range shards {
		if (sh == nil) == (i < c.k) { // a lost data shard or a surviving parity
			idx = append(idx, i)
		}
	}
	s.idx = idx
	lost, alive := idx[:u], idx[u:] // data shards to solve for, parity shards to solve with
	if len(alive) < u {
		return nil, c.errRank
	}
	m := Matrix{Rows: len(alive), Cols: u + len(alive)}
	m.Data = resize(&s.mat, m.Rows*m.Cols)
	clear(m.Data)
	for r, i := range alive {
		for col, j := range lost {
			m.Set(r, col, c.gen[i-c.k][j])
		}
		m.Set(r, u+r, 1)
	}
	if !m.reduce(u) {
		return nil, c.errRank
	}
	dec := resize(&s.dec, c.k)
	width := c.k + len(alive)
	coef := resize(&s.coef, u*width)
	clear(coef)
	for r, j := range lost {
		// The row is computed over all k data shards, then the present
		// ones close ranks and the parity weights follow them.
		row, weights := coef[r*width:(r+1)*width], m.Row(r)[u:]
		for w, i := range alive {
			mulAdd(weights[w], c.gen[i-c.k], row[:c.k])
		}
		n := 0
		for d, s := range data {
			if s != nil {
				row[n] = row[d]
				n++
			}
		}
		dec[j] = row[:n+copy(row[n:], weights)]
	}
	return dec, nil
}
