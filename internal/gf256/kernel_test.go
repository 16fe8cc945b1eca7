package gf256

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// Scalar reference kernels: the one-byte-at-a-time definitions Apply and
// the word-wide slice-advance loops under it must agree with on every
// shape, length and alignment. The loops peel 8/16/32-byte chunks with
// distinct tail handling, so the properties below sweep all lengths
// 0–129 (every chunk-boundary remainder) and unaligned sub-slices of a
// shared backing array (every word-offset phase).

func refMulSlice(c byte, src, dst []byte) {
	for i := range src {
		dst[i] = Mul(c, src[i])
	}
}

func refMulAddSlice(c byte, src, dst []byte) {
	for i := range src {
		dst[i] ^= Mul(c, src[i])
	}
}

func refXorSlice(src, dst []byte) {
	for i := range src {
		dst[i] ^= src[i]
	}
}

// refApply is Apply's definition: out[r] = Σ_c rows[r][c]·in[c].
func refApply(rows, in, out [][]byte) {
	for r, row := range rows {
		refMulSlice(0, out[r], out[r])
		for c, coef := range row {
			refMulAddSlice(coef, in[c], out[r])
		}
	}
}

// kernelLengths is every length from 0 through 129: covers empty, all
// sub-word sizes, exact multiples of the 8/16/32-byte chunk widths, and
// every possible tail remainder after the widest chunk loop.
func kernelLengths() []int {
	ns := make([]int, 130)
	for i := range ns {
		ns[i] = i
	}
	return ns
}

// kernelCoeffs exercises the special-cased multipliers (0, 1) alongside
// generic ones, including the generator polynomial constant.
var kernelCoeffs = []byte{0, 1, 2, 3, Poly, 0x8e, 0xff}

func randomShards(rng *rand.Rand, count, n int) [][]byte {
	shards := make([][]byte, count)
	for i := range shards {
		shards[i] = make([]byte, n)
		rng.Read(shards[i])
	}
	return shards
}

// BenchmarkApply times Apply on one 128 KiB source shard: the one-row
// table loop (1x1) and the two-row loop (2x1, bytes of source).
func BenchmarkApply(b *testing.B) {
	const n = 128 << 10
	for _, rows := range []int{1, 2} {
		b.Run(fmt.Sprintf("%dx1", rows), func(b *testing.B) {
			coef := [][]byte{{0x1d}, {0x8e}}[:rows]
			in := randomShards(rand.New(rand.NewSource(1)), 1, n)
			out := randomShards(rand.New(rand.NewSource(2)), rows, n)
			b.SetBytes(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Apply(coef, in, out)
			}
		})
	}
}

// checkApply runs Apply and refApply on the same inputs and on the same
// stale output contents, which Apply must overwrite.
func checkApply(t *testing.T, rng *rand.Rand, rows [][]byte, n int) {
	t.Helper()
	in := randomShards(rng, len(rows[0]), n)
	want := randomShards(rng, len(rows), n)
	got := make([][]byte, len(want))
	for r := range got {
		got[r] = append([]byte(nil), want[r]...)
	}
	refApply(rows, in, want)
	Apply(rows, in, got)
	for r := range got {
		if !bytes.Equal(want[r], got[r]) {
			t.Fatalf("Apply(%dx%d, n=%d) row %d %v disagrees with scalar reference", len(rows), len(rows[0]), n, r, rows[r])
		}
	}
}

// TestApplyMatchesScalar sweeps matrix shapes — one row (the one-row
// loop), two (one pair), three (a pair and an odd row), twelve — by
// widths up to the widest code's k, coefficients drawn from kernelCoeffs
// so that every pairing of 0, 1 and a generic multiplier occurs, and
// lengths through 4099.
func TestApplyMatchesScalar(t *testing.T) { OnKernels(t, applyMatchesScalar) }

func applyMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	lengths := append(kernelLengths(), 255, 256, 257, 1023, 4096, 4099)
	for _, nr := range []int{1, 2, 3, 12} {
		for _, nc := range []int{1, 7, 50} {
			for _, n := range lengths {
				rows := randomShards(rng, nr, nc)
				for _, row := range rows {
					for c := range row {
						row[c] = kernelCoeffs[rng.Intn(len(kernelCoeffs))]
					}
				}
				checkApply(t, rng, rows, n)
			}
		}
	}
}

// TestApplyEmpty: no rows is no work, and no columns is the empty sum.
func TestApplyEmpty(t *testing.T) {
	Apply(nil, [][]byte{{1, 2}}, nil)
	out := [][]byte{{7, 7}, {7, 7}, {7, 7}}
	Apply([][]byte{{}, {}, {}}, nil, out)
	for _, o := range out {
		if !bytes.Equal(o, []byte{0, 0}) {
			t.Fatalf("Apply over no inputs left %v", out)
		}
	}
}

func TestMulSliceMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range kernelCoeffs {
		for _, n := range kernelLengths() {
			checkApply(t, rng, [][]byte{{c}}, n)
		}
	}
}

func TestMulAddSliceMatchesScalar(t *testing.T) { OnKernels(t, mulAddSliceMatchesScalar) }

func mulAddSliceMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, c := range kernelCoeffs {
		for _, n := range kernelLengths() {
			src := make([]byte, n)
			rng.Read(src)
			want := make([]byte, n)
			rng.Read(want)
			got := append([]byte(nil), want...)
			refMulAddSlice(c, src, want)
			mulAdd(c, src, got)
			if !bytes.Equal(want, got) {
				t.Fatalf("mulAdd(c=%#x, n=%d) disagrees with scalar reference", c, n)
			}
		}
	}
}

func TestXorSliceMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range kernelLengths() {
		src := make([]byte, n)
		rng.Read(src)
		want := make([]byte, n)
		rng.Read(want)
		got := append([]byte(nil), want...)
		refXorSlice(src, want)
		XorSlice(src, got)
		if !bytes.Equal(want, got) {
			t.Fatalf("XorSlice(n=%d) disagrees with scalar reference", n)
		}
	}
}

// TestKernelsUnaligned runs the kernels on sub-slices at every offset 0–32
// of a shared backing array, so word and YMM loads land on every
// alignment phase, and verifies bytes outside the window are untouched.
// The 2×2 Apply takes the two-row loop for its first column and, through
// the coefficient 1 and a generic one, XorSlice and the one-row loop for
// its second.
func TestKernelsUnaligned(t *testing.T) { OnKernels(t, kernelsUnaligned) }

func kernelsUnaligned(t *testing.T) {
	const pad = 16
	rows := [][]byte{{0x1d, 1}, {0x8e, 3}}
	rng := rand.New(rand.NewSource(4))
	for off := 0; off <= 32; off++ {
		for _, n := range []int{0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65, 127, 128, 129} {
			window := func(b []byte) []byte { return b[pad+off : pad+off+n] }
			outside := func(b []byte) []byte {
				return append(append([]byte(nil), b[:pad+off]...), b[pad+off+n:]...)
			}
			backing := randomShards(rng, 4, pad+off+n+pad)
			frozen := make([][]byte, len(backing))
			for i, b := range backing {
				frozen[i] = append([]byte(nil), b...)
			}
			src := window(backing[0])

			// XorSlice on the window.
			want := append([]byte(nil), window(backing[1])...)
			refXorSlice(src, want)
			XorSlice(src, window(backing[1]))
			if !bytes.Equal(want, window(backing[1])) {
				t.Fatalf("XorSlice(off=%d, n=%d) disagrees with scalar reference", off, n)
			}

			// Apply from the first two windows into the last two.
			in := [][]byte{src, window(backing[1])}
			wants := [][]byte{make([]byte, n), make([]byte, n)}
			refApply(rows, in, wants)
			Apply(rows, in, [][]byte{window(backing[2]), window(backing[3])})
			for r, want := range wants {
				if !bytes.Equal(want, window(backing[2+r])) {
					t.Fatalf("Apply(off=%d, n=%d) row %d disagrees with scalar reference", off, n, r)
				}
			}

			if !bytes.Equal(backing[0], frozen[0]) {
				t.Fatalf("off=%d n=%d: a source was modified", off, n)
			}
			for i := 1; i < 4; i++ {
				if !bytes.Equal(outside(backing[i]), outside(frozen[i])) {
					t.Fatalf("off=%d n=%d: shard %d written outside the window", off, n, i)
				}
			}
		}
	}
}

func TestMulAddDualMatchesScalar(t *testing.T) { OnKernels(t, mulAddDualMatchesScalar) }

func mulAddDualMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, pair := range [][2]byte{{0, 0}, {1, 2}, {0x1d, 0x8e}, {0xff, 0x01}} {
		c1, c2 := pair[0], pair[1]
		for _, n := range kernelLengths() {
			src := make([]byte, n)
			rng.Read(src)
			w1 := make([]byte, n)
			w2 := make([]byte, n)
			rng.Read(w1)
			rng.Read(w2)
			g1 := append([]byte(nil), w1...)
			g2 := append([]byte(nil), w2...)
			refMulAddSlice(c1, src, w1)
			refMulAddSlice(c2, src, w2)
			mulAdd2(c1, c2, src, g1, g2)
			if !bytes.Equal(w1, g1) || !bytes.Equal(w2, g2) {
				t.Fatalf("mulAdd2(c1=%#x, c2=%#x, n=%d) disagrees with scalar reference", c1, c2, n)
			}
		}
	}
}

// TestMulDualMatchesScalar: a 2×1 Apply overwrites both outputs, stale
// contents and all, for pairs that take the two-row loop and pairs that
// fall back to one row each.
func TestMulDualMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, pair := range [][2]byte{{0, 1}, {0x1d, 0x8e}, {0xfe, 0xff}, {1, 1}, {2, 0}} {
		for _, n := range kernelLengths() {
			checkApply(t, rng, [][]byte{{pair[0]}, {pair[1]}}, n)
		}
	}
}

// TestDualLengthMismatchPanics: every way the three arguments of Apply can
// disagree on the shape panics before anything is written.
func TestDualLengthMismatchPanics(t *testing.T) {
	shard := func(n int) []byte { return make([]byte, n) }
	for name, fn := range map[string]func(){
		"fewer rows than outputs": func() { Apply([][]byte{{2}}, [][]byte{shard(4)}, [][]byte{shard(4), shard(4)}) },
		"more rows than outputs":  func() { Apply([][]byte{{2}, {3}}, [][]byte{shard(4)}, [][]byte{shard(4)}) },
		"row narrower than in":    func() { Apply([][]byte{{2}}, [][]byte{shard(4), shard(4)}, [][]byte{shard(4)}) },
		"row wider than in":       func() { Apply([][]byte{{2, 3}, {2, 3, 4}}, [][]byte{shard(4), shard(4)}, [][]byte{shard(4), shard(4)}) },
		"short input":             func() { Apply([][]byte{{2, 3}}, [][]byte{shard(4), shard(3)}, [][]byte{shard(4)}) },
		"long output":             func() { Apply([][]byte{{2}, {3}}, [][]byte{shard(4)}, [][]byte{shard(4), shard(5)}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// TestKernelsDoNotAllocate holds the //mlec:hot claim of zero allocations
// per call: Apply at 1, 2, 3 and 12 rows, Code.Encode and XorSlice, on
// shards long enough for a vector body and a Go tail. It also holds the
// pooled scratch to its promise: once warm, Code.Verify allocates nothing
// and Code.Reconstruct exactly the shards it rebuilds.
func TestKernelsDoNotAllocate(t *testing.T) { OnKernels(t, kernelsDoNotAllocate) }

func kernelsDoNotAllocate(t *testing.T) {
	const n = 4099
	rng := rand.New(rand.NewSource(9))
	in := randomShards(rng, 12, n)
	noAllocs := func(what string, f func()) {
		t.Helper()
		if allocs := testing.AllocsPerRun(20, f); allocs != 0 {
			t.Errorf("%s: %v allocations per call, want 0", what, allocs)
		}
	}
	for _, nr := range []int{1, 2, 3, 12} {
		rows, out := randomShards(rng, nr, len(in)), randomShards(rng, nr, n)
		noAllocs(fmt.Sprintf("Apply with %d rows", nr), func() { Apply(rows, in, out) })
	}
	gen, err := ParityRows(10, 4)
	if err != nil {
		t.Fatal(err)
	}
	code, stripe := NewCode("rs", 10, gen, nil, nil), randomShards(rng, 14, n)
	noAllocs("Code.Encode", func() {
		if err := code.Encode(stripe); err != nil {
			t.Fatal(err)
		}
	})
	noAllocs("XorSlice", func() { XorSlice(in[0], in[1]) })
	noAllocs("Code.Verify", func() {
		if ok, err := code.Verify(stripe); !ok || err != nil {
			t.Fatalf("Verify = %v, %v on an encoded stripe", ok, err)
		}
	})

	// lrc (14,2,4): two XOR group rows, then four Reed–Solomon rows.
	lrcGen := make([][]byte, 2)
	for g := range lrcGen {
		lrcGen[g] = make([]byte, 14)
		for j := 7 * g; j < 7*g+7; j++ {
			lrcGen[g][j] = 1
		}
	}
	global, err := ParityRows(14, 4)
	if err != nil {
		t.Fatal(err)
	}
	lrcCode, lrcStripe := NewCode("lrc", 14, append(lrcGen, global...), nil, nil), randomShards(rng, 20, n)
	if err := lrcCode.Encode(lrcStripe); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		code   *Code
		stripe [][]byte
		lost   []int
	}{
		{"rs 10+4, one data", code, stripe, []int{1}},
		{"rs 10+4, data and parity", code, stripe, []int{1, 11}},
		{"rs 10+4, three", code, stripe, []int{1, 5, 12}},
		{"rs 10+4, four", code, stripe, []int{0, 3, 7, 13}},
		{"lrc 14,2,4, local", lrcCode, lrcStripe, []int{2}},
		{"lrc 14,2,4, local and global", lrcCode, lrcStripe, []int{2, 17}},
	} {
		shards := make([][]byte, len(tc.stripe))
		allocs := testing.AllocsPerRun(20, func() {
			copy(shards, tc.stripe)
			for _, i := range tc.lost {
				shards[i] = nil
			}
			if err := tc.code.Reconstruct(shards, false); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
		})
		if allocs != float64(len(tc.lost)) {
			t.Errorf("Code.Reconstruct, %s: %v allocations per call, want %d (the rebuilt shards)", tc.name, allocs, len(tc.lost))
		}
		for _, i := range tc.lost {
			if !bytes.Equal(shards[i], tc.stripe[i]) {
				t.Errorf("Code.Reconstruct, %s: shard %d rebuilt wrong", tc.name, i)
			}
		}
	}
}
