// Package kernelbench is the one table of codec kernel micro-benchmarks:
// gf256.Apply and XorSlice and the rs/lrc encode, verify and reconstruct
// paths on 128 KiB shards with fixed seeds. `mlecbench kernels` times
// each row through testing.Benchmark for the BENCH_gf256.json ledger, and
// the root package's BenchmarkKernels runs the same rows as
// sub-benchmarks, so `go test -bench=Kernels` and the ledger measure the
// same work.
package kernelbench

import (
	"math/rand"
	"testing"

	"mlec/internal/gf256"
	"mlec/internal/lrc"
	"mlec/internal/rs"
)

// ShardBytes is the size of every shard the benchmarks touch.
const ShardBytes = 128 << 10

// Bench is one named row of the table.
type Bench struct {
	Name string
	Fn   func(b *testing.B)
}

// All returns the table's rows in ledger order.
func All() []Bench {
	return []Bench{
		{"gf256.Apply_1x1", applyBench(1)},
		{"gf256.Apply_2x1", applyBench(2)},
		{"gf256.XorSlice", func(b *testing.B) {
			src, dst := randSlice(1), make([]byte, ShardBytes)
			b.SetBytes(ShardBytes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gf256.XorSlice(src, dst)
			}
		}},
		{"rs.Encode_10_2", encodeBench(rs.MustNew(10, 2), 10, 12)},
		{"rs.Encode_17_3", encodeBench(rs.MustNew(17, 3), 17, 20)},
		{"rs.Encode_28_12", encodeBench(rs.MustNew(28, 12), 28, 40)},
		{"rs.Verify_17_3", func(b *testing.B) {
			codec := rs.MustNew(17, 3)
			shards := encodedStripe(b, codec, 17, 20, 2)
			b.SetBytes(17 * ShardBytes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if ok, err := codec.Verify(shards); err != nil || !ok {
					b.Fatal(ok, err)
				}
			}
		}},
		{"rs.Reconstruct_17_3", reconstructBench(rs.MustNew(17, 3), 17, 20, []int{0, 7, 19})},
		{"lrc.Encode_14_2_4", encodeBench(lrc.MustNew(14, 2, 4), 14, 20)},
		// One loss in a group (XOR repair) plus two in the other and a
		// global parity (the global solve).
		{"lrc.Reconstruct_14_2_4", reconstructBench(lrc.MustNew(14, 2, 4), 14, 20, []int{0, 7, 8, 16})},
	}
}

// applyBench times gf256.Apply on a rows×1 matrix: the one-row table loop
// for rows = 1, the two-row loop for rows = 2.
func applyBench(rows int) func(b *testing.B) {
	return func(b *testing.B) {
		coef := [][]byte{{0x1d}, {0x8e}}[:rows]
		in := [][]byte{randSlice(1)}
		out := [][]byte{make([]byte, ShardBytes), make([]byte, ShardBytes)}[:rows]
		b.SetBytes(ShardBytes)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			gf256.Apply(coef, in, out)
		}
	}
}

// stripeCodec is what the benchmarks need of rs.Codec and lrc.Codec.
type stripeCodec interface {
	Encode(shards [][]byte) error
	Reconstruct(shards [][]byte) error
}

// encodedStripe returns a stripe of total shards whose first k are
// seeded random data and whose parities codec filled in.
func encodedStripe(b *testing.B, codec stripeCodec, k, total int, seed int64) [][]byte {
	shards := make([][]byte, total)
	rng := rand.New(rand.NewSource(seed))
	for i := range shards {
		shards[i] = make([]byte, ShardBytes)
		if i < k {
			rng.Read(shards[i])
		}
	}
	if err := codec.Encode(shards); err != nil {
		b.Fatal(err)
	}
	return shards
}

func encodeBench(codec stripeCodec, k, total int) func(b *testing.B) {
	return func(b *testing.B) {
		shards := encodedStripe(b, codec, k, total, 2)
		b.SetBytes(int64(k) * ShardBytes)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := codec.Encode(shards); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// reconstructBench times rebuilding the lost shards of one stripe;
// throughput counts the bytes rebuilt.
func reconstructBench(codec stripeCodec, k, total int, lost []int) func(b *testing.B) {
	return func(b *testing.B) {
		ref := encodedStripe(b, codec, k, total, 3)
		shards := make([][]byte, total)
		b.SetBytes(int64(len(lost)) * ShardBytes)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(shards, ref)
			for _, j := range lost {
				shards[j] = nil
			}
			if err := codec.Reconstruct(shards); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func randSlice(seed int64) []byte {
	s := make([]byte, ShardBytes)
	rand.New(rand.NewSource(seed)).Read(s)
	return s
}
