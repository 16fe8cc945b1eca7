package gf256_test

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"mlec/internal/gf256"
	"mlec/internal/lrc"
	"mlec/internal/rs"
)

// refCodec is the byte-at-a-time reference the codecs are held to: its
// generator is taken from the definitions (rs.ParityRow; for an LRC, XOR
// masks over the groups followed by the Reed–Solomon rows of k+r), its
// arithmetic is gf256.Mul/Inv on single bytes, and its decoder solves the
// whole k-unknown system naively, with none of the codec's shortcuts.
type refCodec struct {
	k   int
	gen [][]byte
}

func refRS(k, p int) refCodec {
	ref := refCodec{k: k}
	c := rs.MustNew(k, p)
	for i := 0; i < p; i++ {
		row, err := c.ParityRow(i)
		if err != nil {
			panic(err)
		}
		ref.gen = append(ref.gen, row)
	}
	return ref
}

func refLRC(k, l, r int) refCodec {
	ref := refCodec{k: k}
	for g := 0; g < l; g++ {
		mask := make([]byte, k)
		for j := g * (k / l); j < (g+1)*(k/l); j++ {
			mask[j] = 1
		}
		ref.gen = append(ref.gen, mask)
	}
	ref.gen = append(ref.gen, refRS(k, r).gen...)
	return ref
}

// addScaled sets dst[i] ^= f·src[i], a byte at a time.
func addScaled(dst, src []byte, f byte) {
	for i := range dst {
		dst[i] ^= gf256.Mul(f, src[i])
	}
}

// parity returns parity shard i of data.
func (ref refCodec) parity(i int, data [][]byte) []byte {
	out := make([]byte, len(data[0]))
	for j, d := range data {
		addScaled(out, d, ref.gen[i][j])
	}
	return out
}

// reconstruct returns the full stripe of shards (nil marks a loss), or
// false when the present shards do not determine the data. Every present
// shard is one equation over the k data shards — a unit row for a data
// shard, a generator row for a parity — and Gauss–Jordan over all of
// them either finds k pivots or shows the rank is short.
func (ref refCodec) reconstruct(shards [][]byte) ([][]byte, bool) {
	var eqs, rhs [][]byte
	for i, s := range shards {
		if s == nil {
			continue
		}
		row := make([]byte, ref.k)
		if i < ref.k {
			row[i] = 1
		} else {
			copy(row, ref.gen[i-ref.k])
		}
		eqs, rhs = append(eqs, row), append(rhs, append([]byte(nil), s...))
	}
	for col := 0; col < ref.k; col++ {
		pivot := col
		for pivot < len(eqs) && eqs[pivot][col] == 0 {
			pivot++
		}
		if pivot >= len(eqs) {
			return nil, false
		}
		eqs[col], eqs[pivot] = eqs[pivot], eqs[col]
		rhs[col], rhs[pivot] = rhs[pivot], rhs[col]
		inv := gf256.Inv(eqs[col][col])
		for _, row := range [][]byte{eqs[col], rhs[col]} {
			for i := range row {
				row[i] = gf256.Mul(inv, row[i])
			}
		}
		for r := range eqs {
			if r != col {
				f := eqs[r][col]
				addScaled(eqs[r], eqs[col], f)
				addScaled(rhs[r], rhs[col], f)
			}
		}
	}
	full := append([][]byte(nil), rhs[:ref.k]...)
	for i := range ref.gen {
		full = append(full, ref.parity(i, full[:ref.k]))
	}
	return full, true
}

// testedCodec is one codec under differential test with its reference
// and the sentinel it must return where the reference finds no solution.
type testedCodec struct {
	name            string
	ref             refCodec
	encode          func([][]byte) error
	reconstruct     func([][]byte) error
	reconstructData func([][]byte) error // nil for lrc
	unrecoverable   error
}

func testedRS(k, p int) testedCodec {
	c := rs.MustNew(k, p)
	return testedCodec{fmt.Sprintf("rs %d+%d", k, p), refRS(k, p), c.Encode, c.Reconstruct, c.ReconstructData, rs.ErrTooFewShards}
}

func testedLRC(k, l, r int) testedCodec {
	c := lrc.MustNew(k, l, r)
	return testedCodec{fmt.Sprintf("lrc %d,%d,%d", k, l, r), refLRC(k, l, r), c.Encode, c.Reconstruct, nil, lrc.ErrUnrecoverable}
}

// stripe returns an encoded stripe and checks every parity byte against
// the reference.
func (tc testedCodec) stripe(t testing.TB, rng *rand.Rand, size int) [][]byte {
	t.Helper()
	shards := make([][]byte, tc.ref.k+len(tc.ref.gen))
	for i := range shards {
		shards[i] = make([]byte, size)
		rng.Read(shards[i]) // stale parity contents must be overwritten
	}
	if err := tc.encode(shards); err != nil {
		t.Fatalf("%s: Encode: %v", tc.name, err)
	}
	for i := range tc.ref.gen {
		if want := tc.ref.parity(i, shards[:tc.ref.k]); !bytes.Equal(shards[tc.ref.k+i], want) {
			t.Fatalf("%s: parity %d is %v, reference %v", tc.name, i, shards[tc.ref.k+i], want)
		}
	}
	return shards
}

// checkErasure loses the shards lost(i) names from full and holds both
// reconstruct entry points to the reference: the same bytes in every
// rebuilt shard, present shards left alone, or the codec's sentinel —
// with the shards as they were — where the reference has no solution.
func (tc testedCodec) checkErasure(t testing.TB, full [][]byte, lost func(i int) bool) {
	t.Helper()
	k := tc.ref.k
	erased := make([][]byte, len(full))
	for i, s := range full {
		if !lost(i) {
			erased[i] = s
		}
	}
	want, ok := tc.ref.reconstruct(erased)
	for _, dataOnly := range []bool{false, true} {
		reconstruct := tc.reconstruct
		if dataOnly {
			if reconstruct = tc.reconstructData; reconstruct == nil {
				continue
			}
		}
		got := append([][]byte(nil), erased...)
		err := reconstruct(got)
		if !ok {
			if !errors.Is(err, tc.unrecoverable) {
				t.Fatalf("%s: undetermined pattern %v: error %v, want %v", tc.name, describe(erased), err, tc.unrecoverable)
			}
			want = erased
		} else if err != nil {
			t.Fatalf("%s: pattern %v: %v", tc.name, describe(erased), err)
		}
		for i := range got {
			expect := want[i]
			if ok && dataOnly && i >= k {
				expect = erased[i] // lost parity stays lost
			}
			if (got[i] == nil) != (expect == nil) || !bytes.Equal(got[i], expect) {
				t.Fatalf("%s: pattern %v (dataOnly=%v): shard %d is %v, reference %v", tc.name, describe(erased), dataOnly, i, got[i], expect)
			}
			if erased[i] != nil && &got[i][0] != &erased[i][0] {
				t.Fatalf("%s: pattern %v: present shard %d was replaced", tc.name, describe(erased), i)
			}
		}
	}
	for i, s := range erased {
		if s != nil && !bytes.Equal(s, full[i]) {
			t.Fatalf("%s: pattern %v: present shard %d was modified", tc.name, describe(erased), i)
		}
	}
}

// describe renders an erasure pattern, x for a lost shard.
func describe(shards [][]byte) string {
	b := make([]byte, len(shards))
	for i, s := range shards {
		b[i] = '.'
		if s == nil {
			b[i] = 'x'
		}
	}
	return string(b)
}

// TestCodecsMatchReference runs every erasure mask of every Reed–Solomon
// code up to 12+4 and of a spread of LRC shapes — recoverable or not —
// against the reference.
func TestCodecsMatchReference(t *testing.T) {
	var codecs []testedCodec
	for k := 1; k <= 12; k++ {
		for p := 0; p <= 4; p++ {
			codecs = append(codecs, testedRS(k, p))
		}
	}
	for _, s := range [][3]int{{4, 2, 2}, {2, 2, 0}, {3, 1, 2}, {6, 2, 2}, {6, 3, 3}, {8, 2, 4}, {9, 3, 1}, {12, 2, 2}} {
		codecs = append(codecs, testedLRC(s[0], s[1], s[2]))
	}
	rng := rand.New(rand.NewSource(11))
	for _, tc := range codecs {
		full := tc.stripe(t, rng, 3)
		// Masks that lose more than can ever come back all take the same
		// early exit; past two beyond the parity count a sample will do.
		for mask := 0; mask < 1<<len(full); mask++ {
			if n := popcount(mask); n > len(tc.ref.gen)+2 && mask%61 != 0 {
				continue
			}
			tc.checkErasure(t, full, func(i int) bool { return mask>>i&1 == 1 })
		}
	}
}

func popcount(x int) (n int) {
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// FuzzCodecMatchesReference takes the shape, the shard size, the data
// seed and the erasure pattern from the fuzzer: Reed–Solomon up to 50+10
// and LRCs up to four groups, with patterns that go past what the code
// can recover.
func FuzzCodecMatchesReference(f *testing.F) {
	f.Add(uint8(10), uint8(2), uint8(0), uint8(17), int64(1), []byte{3})
	f.Add(uint8(17), uint8(3), uint8(0), uint8(64), int64(2), []byte{0, 7, 19})
	f.Add(uint8(50), uint8(10), uint8(0), uint8(5), int64(3), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 59})
	f.Add(uint8(7), uint8(3), uint8(0), uint8(1), int64(4), []byte{0, 1, 2, 3}) // p+1 losses
	f.Add(uint8(14), uint8(4), uint8(2), uint8(33), int64(5), []byte{1})        // lone loss in a group
	f.Add(uint8(14), uint8(4), uint8(2), uint8(9), int64(6), []byte{0, 1, 16})  // two in a group plus a global
	f.Add(uint8(4), uint8(2), uint8(2), uint8(8), int64(7), []byte{0, 1, 4, 6}) // beyond an LRC's reach
	f.Add(uint8(14), uint8(4), uint8(2), uint8(2), int64(8), []byte{0, 1, 2, 3, 4, 5, 6})
	f.Fuzz(func(t *testing.T, k, p, l, size uint8, seed int64, lost []byte) {
		k, p, l, size = 1+k%50, p%11, l%5, 1+size%64
		var tc testedCodec
		if l == 0 {
			tc = testedRS(int(k), int(p))
		} else {
			k = max(k/l, 1) * l // whole groups
			tc = testedLRC(int(k), int(l), int(p))
		}
		full := tc.stripe(t, rand.New(rand.NewSource(seed)), int(size))
		tc.checkErasure(t, full, func(i int) bool {
			for _, j := range lost {
				if int(j)%len(full) == i {
					return true
				}
			}
			return false
		})
	})
}
