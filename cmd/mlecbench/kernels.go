package main

import (
	"fmt"
	"math/rand"
	"testing"

	"mlec/internal/gf256"
	"mlec/internal/rs"
)

// The kernels tier: the codec kernel micro-benchmarks run through
// testing.Benchmark (BENCH_gf256.json). The file exists so that "the
// kernels are allocation-free" is a recorded, diffable fact rather than
// a claim: each run captures GB/s and allocs/op for the gf256
// primitives and the Reed-Solomon encode/reconstruct paths, and a sweep
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
		{"gf256.MulSlice", func(b *testing.B) {
			src, dst := randSlice(1), make([]byte, shardBytes)
			b.SetBytes(shardBytes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gf256.MulSlice(0x1d, src, dst)
			}
		}},
		{"gf256.MulAddSlice", func(b *testing.B) {
			src, dst := randSlice(1), make([]byte, shardBytes)
			b.SetBytes(shardBytes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gf256.MulAddSlice(0x1d, src, dst)
			}
		}},
		{"gf256.XorSlice", func(b *testing.B) {
			src, dst := randSlice(1), make([]byte, shardBytes)
			b.SetBytes(shardBytes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				gf256.XorSlice(src, dst)
			}
		}},
		{"rs.Encode_10_2", rsEncodeBench(10, 2)},
		{"rs.Encode_17_3", rsEncodeBench(17, 3)},
		{"rs.Encode_28_12", rsEncodeBench(28, 12)},
		{"rs.Reconstruct_17_3", func(b *testing.B) {
			codec := rs.MustNew(17, 3)
			ref := make([][]byte, 20)
			rng := rand.New(rand.NewSource(3))
			for i := range ref {
				ref[i] = make([]byte, shardBytes)
				if i < 17 {
					rng.Read(ref[i])
				}
			}
			if err := codec.Encode(ref); err != nil {
				b.Fatal(err)
			}
			shards := make([][]byte, 20)
			b.SetBytes(3 * shardBytes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(shards, ref)
				shards[0], shards[7], shards[19] = nil, nil, nil
				if err := codec.Reconstruct(shards); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}
}

func rsEncodeBench(k, p int) func(b *testing.B) {
	return func(b *testing.B) {
		codec := rs.MustNew(k, p)
		shards := make([][]byte, k+p)
		rng := rand.New(rand.NewSource(2))
		for i := range shards {
			shards[i] = make([]byte, shardBytes)
			if i < k {
				rng.Read(shards[i])
			}
		}
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

func randSlice(seed int64) []byte {
	s := make([]byte, shardBytes)
	rand.New(rand.NewSource(seed)).Read(s)
	return s
}
