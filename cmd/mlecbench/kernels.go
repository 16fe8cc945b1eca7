package main

import (
	"fmt"
	"testing"

	"mlec/internal/kernelbench"
)

// The kernels tier: the rows of the kernelbench table run through
// testing.Benchmark (BENCH_gf256.json). The file exists so that "the
// kernels are allocation-free" is a recorded, diffable fact rather than
// a claim: each run captures GB/s and allocs/op for gf256.Apply and
// XorSlice and the rs/lrc encode, verify and reconstruct paths, and a
// sweep that accidentally introduces an allocation shows up as a nonzero
// allocs/op in the diff, next to the throughput it cost.

const kernelSchema = "mlec-kernel-bench/v1"

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
	for _, bm := range kernelbench.All() {
		r := testing.Benchmark(bm.Fn)
		gbps := 0.0
		if r.Bytes > 0 && r.T > 0 {
			gbps = float64(r.Bytes) * float64(r.N) / r.T.Seconds() / 1e9
		}
		res := benchResult{
			Name:        bm.Name,
			N:           r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			GBPerSec:    gbps,
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		results = append(results, res)
		fmt.Printf("%-24s %12d ops  %10.1f ns/op  %7.2f GB/s  %4d allocs/op\n",
			bm.Name, r.N, res.NsPerOp, res.GBPerSec, res.AllocsPerOp)
	}
	return results
}
