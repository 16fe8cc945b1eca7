package main

import (
	"fmt"
	"math/rand"
	"testing"

	"mlec/internal/gf256"
	"mlec/internal/lrc"
	"mlec/internal/rs"
)

// The kernels tier: the codec kernel micro-benchmarks run through
// testing.Benchmark (BENCH_gf256.json). The file exists so that "the
// kernels are allocation-free" is a recorded, diffable fact rather than
// a claim: each run captures GB/s and allocs/op for gf256.Apply and
// XorSlice and the rs/lrc encode, verify and reconstruct paths, and a sweep
// that accidentally introduces an allocation shows up as a nonzero
// allocs/op in the diff, next to the throughput it cost.

const kernelSchema = "mlec-kernel-bench/v1"

const shardBytes = 128 << 10

type benchResult struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	GBPerSec    float64 `json:"gb_per_sec"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"alloced_bytes_per_op"`
}

// runKernels runs every kernel benchmark and returns its throughput.
func runKernels() []benchResult {
	var results []benchResult
	for _, bm := range kernelBenchmarks() {
		r := testing.Benchmark(bm.fn)
		gbps := 0.0
		if r.Bytes > 0 && r.T > 0 {
			gbps = float64(r.Bytes) * float64(r.N) / r.T.Seconds() / 1e9
		}
		res := benchResult{
			Name:        bm.name,
			N:           r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			GBPerSec:    gbps,
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		results = append(results, res)
		fmt.Printf("%-24s %12d ops  %10.1f ns/op  %7.2f GB/s  %4d allocs/op\n",
			bm.name, r.N, res.NsPerOp, res.GBPerSec, res.AllocsPerOp)
	}
	return results
}

type namedBench struct {
	name string
	fn   func(b *testing.B)
}

// kernelBenchmarks mirrors the hot-path micro-benchmarks of
// bench_test.go: same shard size, same fixed seeds, so `go test
// -bench` and the committed baseline measure the same work.
func kernelBenchmarks() []namedBench {
	return []namedBench{
		{"gf256.Apply_1x1", applyBench(1)},
		{"gf256.Apply_2x1", applyBench(2)},
		{"gf256.XorSlice", func(b *testing.B) {
			src, dst := randSlice(1), make([]byte, shardBytes)
			b.SetBytes(shardBytes)
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
			b.SetBytes(17 * shardBytes)
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
		out := [][]byte{make([]byte, shardBytes), make([]byte, shardBytes)}[:rows]
		b.SetBytes(shardBytes)
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
		shards[i] = make([]byte, shardBytes)
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
		b.SetBytes(int64(k) * shardBytes)
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
		b.SetBytes(int64(len(lost)) * shardBytes)
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
	s := make([]byte, shardBytes)
	rand.New(rand.NewSource(seed)).Read(s)
	return s
}
