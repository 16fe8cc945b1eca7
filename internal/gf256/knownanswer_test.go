package gf256_test

import (
	"encoding/hex"
	"testing"

	"mlec/internal/gf256"
	"mlec/internal/lrc"
)

// TestRAIDKnownAnswers holds Apply to the RAID-5 and RAID-6 parities of a
// fixed 3-shard, 40-byte stripe (a 32-byte vector block and an 8-byte
// tail): P = d0 ⊕ d1 ⊕ d2 and Q = d0 ⊕ 2·d1 ⊕ 4·d2. The constants were
// computed byte by byte with shift-and-add multiplication, not with the
// package's tables.
func TestRAIDKnownAnswers(t *testing.T) { gf256.OnKernels(t, raidKnownAnswers) }

func raidKnownAnswers(t *testing.T) {
	const (
		p = "ba4bfcedfe6f00b142f3e4f56617a859cadbcc7d0ebf50c1d2c37405b6a7b829da6b1c8d9e8f20d1"
		q = "bcec4cc01298f7a3d943c9259d8092d6b6a61ceaa5b5c7a99313e392b017587c66cc8b47725f6d79"
	)
	data := make([][]byte, 3)
	for i := range data {
		data[i] = make([]byte, 40)
		for j := range data[i] {
			data[i][j] = byte(37*j + 101*i + 7)
		}
	}
	for _, tc := range []struct {
		name string
		rows [][]byte
		want []string
	}{
		{"RAID-5", [][]byte{{1, 1, 1}}, []string{p}},
		{"RAID-6", [][]byte{{1, 1, 1}, {1, 2, 4}}, []string{p, q}},
	} {
		out := make([][]byte, len(tc.rows))
		for i := range out {
			out[i] = make([]byte, 40)
		}
		gf256.Apply(tc.rows, data, out)
		for i, want := range tc.want {
			if got := hex.EncodeToString(out[i]); got != want {
				t.Errorf("%s parity %d = %s, want %s", tc.name, i, got, want)
			}
		}
	}
}

// TestLRCLocalParityIsGroupXOR: every local parity of an LRC whose global
// rows take the two-row vector body is the XOR of its group.
func TestLRCLocalParityIsGroupXOR(t *testing.T) {
	gf256.OnKernels(t, func(t *testing.T) {
		const k, l, r, size = 14, 2, 4, 45
		shards := make([][]byte, k+l+r)
		for i := range shards {
			shards[i] = make([]byte, size)
			for j := range shards[i] {
				shards[i][j] = byte(i*size + j)
			}
		}
		if err := lrc.MustNew(k, l, r).Encode(shards); err != nil {
			t.Fatal(err)
		}
		for g := 0; g < l; g++ {
			for j := 0; j < size; j++ {
				var want byte
				for _, d := range shards[g*k/l : (g+1)*k/l] {
					want ^= d[j]
				}
				if got := shards[k+g][j]; got != want {
					t.Fatalf("local parity %d byte %d = %#x, group XOR %#x", g, j, got, want)
				}
			}
		}
	})
}
