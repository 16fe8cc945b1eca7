// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation (DESIGN.md §3 maps each to its experiment driver), plus
// micro-benchmarks of the hot codec paths.
//
// Run with:
//
//	go test -bench=. -benchmem
//
// The figure benchmarks execute the experiment drivers in Quick mode —
// the same code paths as `mlecsim <id>`, on reduced grids so a full sweep
// stays in CI budgets. Custom metrics expose the headline quantity of
// each figure (PDL, nines, TB, GB/s) so regressions in *results*, not
// just speed, are visible.
package mlec

import (
	"math/rand"
	"testing"

	"mlec/internal/burst"
	"mlec/internal/experiments"
	"mlec/internal/gf256"
	"mlec/internal/lrc"
	"mlec/internal/placement"
	"mlec/internal/repair"
	"mlec/internal/rs"
	"mlec/internal/topology"
)

func benchOpts(i int) experiments.Options {
	return experiments.Options{Quick: true, Seed: int64(i) + 1, AFR: 0.01}
}

// --- Figure/table benchmarks ------------------------------------------

func BenchmarkFig01StorageScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig1(benchOpts(i))
		if len(r.Points) == 0 {
			b.Fatal("empty dataset")
		}
	}
}

func BenchmarkTab01FailureModes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Tab1(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		if r.Steps[3].Report.LostNetworkStripes == 0 {
			b.Fatal("taxonomy demo lost no data in the final step")
		}
	}
}

func BenchmarkFig05PDLHeatmapMLEC(b *testing.B) {
	var lastPDL float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		g := r.Grids[placement.SchemeDD]
		lastPDL = g.Cells[len(g.Ys)-1][1].PDL
	}
	b.ReportMetric(lastPDL, "DD-PDL(y=60,x=11)")
}

func BenchmarkFig06RepairTime(b *testing.B) {
	var hours float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6Tab2(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		hours = r.Rows[1].PoolRepairHours // C/D, the slowest
	}
	b.ReportMetric(hours, "CD-pool-repair-h")
}

func BenchmarkTab02RepairBandwidth(b *testing.B) {
	var bw float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig6Tab2(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		bw = r.Rows[2].PoolRepairBW // D/C: 1363 MB/s
	}
	b.ReportMetric(bw/1e6, "DC-pool-MB/s")
}

func BenchmarkFig07CatastrophicLocal(b *testing.B) {
	var p float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig7(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		p = r.PerScheme[placement.SchemeCC]
	}
	b.ReportMetric(p, "CC-P(cat)/yr")
}

func BenchmarkFig08CrossRackTraffic(b *testing.B) {
	var tb float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig8(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		tb = r.Rows[1].Traffic[int(repair.RHYB)] / 1e12 // C/D R_HYB ≈ 3.1 TB
	}
	b.ReportMetric(tb, "CD-RHYB-TB")
}

func BenchmarkFig09RepairTimeMethods(b *testing.B) {
	var h float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig9(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		h = r.Rows[1].Analyses[int(repair.RFCO)].NetworkRepairHours
	}
	b.ReportMetric(h, "CD-RFCO-net-h")
}

func BenchmarkFig10Durability(b *testing.B) {
	var nines float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig10(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range r.Rows {
			if row.Scheme == placement.SchemeCD {
				nines = row.Results[int(repair.RMin)].Nines
			}
		}
	}
	b.ReportMetric(nines, "CD-RMIN-nines")
}

func BenchmarkFig11EncodingThroughput(b *testing.B) {
	var gbs float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig11(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		gbs = r.Cells[0].BytesPerSec / 1e9
	}
	b.ReportMetric(gbs, "k2p1-GB/s")
}

func BenchmarkFig12MLECvsSLEC(b *testing.B) {
	var nines float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig12(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		nines = r.PanelA[0].Nines
	}
	b.ReportMetric(nines, "CC-point-nines")
}

func BenchmarkFig13PDLHeatmapSLEC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig13(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Grids) != 4 {
			b.Fatal("missing grids")
		}
	}
}

func BenchmarkFig14LRCLayout(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig14(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		if !r.RoundTripOK {
			b.Fatal("LRC repair failed")
		}
	}
}

func BenchmarkFig15MLECvsLRC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig15(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		if len(r.Points) == 0 {
			b.Fatal("no points")
		}
	}
}

func BenchmarkFig16PDLHeatmapLRC(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig16(benchOpts(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSec514RepairTraffic(b *testing.B) {
	var years float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Sec5Traffic(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		years = r.Comparison.MLECYearsPerTB
	}
	b.ReportMetric(years, "MLEC-years/TB")
}

func BenchmarkSec524LRCTraffic(b *testing.B) {
	var daily float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Sec5Traffic(benchOpts(i))
		if err != nil {
			b.Fatal(err)
		}
		daily = r.Comparison.LRCDaily / 1e12
	}
	b.ReportMetric(daily, "LRC-TB/day")
}

// --- Hot-path micro-benchmarks ----------------------------------------

// These mirror the rows of `mlecbench kernels` (cmd/mlecbench/kernels.go):
// same 128 KiB shards, same seeds.

const benchShardBytes = 128 << 10

// benchmarkApply times gf256.Apply on a rows×1 matrix: the one-row table
// loop for rows = 1, the two-row loop for rows = 2.
func benchmarkApply(b *testing.B, rows int) {
	coef := [][]byte{{0x1d}, {0x8e}}[:rows]
	in := [][]byte{make([]byte, benchShardBytes)}
	rand.New(rand.NewSource(1)).Read(in[0])
	out := [][]byte{make([]byte, benchShardBytes), make([]byte, benchShardBytes)}[:rows]
	b.SetBytes(benchShardBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gf256.Apply(coef, in, out)
	}
}

func BenchmarkGFApply_1x1(b *testing.B) { benchmarkApply(b, 1) }
func BenchmarkGFApply_2x1(b *testing.B) { benchmarkApply(b, 2) }

// benchCodec is what the benchmarks need of rs.Codec and lrc.Codec.
type benchCodec interface {
	Encode(shards [][]byte) error
	Reconstruct(shards [][]byte) error
}

// encodedStripe returns a stripe of total shards whose first k are seeded
// random data and whose parities codec filled in.
func encodedStripe(b *testing.B, codec benchCodec, k, total int, seed int64) [][]byte {
	shards := make([][]byte, total)
	rng := rand.New(rand.NewSource(seed))
	for i := range shards {
		shards[i] = make([]byte, benchShardBytes)
		if i < k {
			rng.Read(shards[i])
		}
	}
	if err := codec.Encode(shards); err != nil {
		b.Fatal(err)
	}
	return shards
}

func benchmarkEncode(b *testing.B, codec benchCodec, k, total int) {
	shards := encodedStripe(b, codec, k, total, 2)
	b.SetBytes(int64(k) * benchShardBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := codec.Encode(shards); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRSEncode_10_2(b *testing.B)  { benchmarkEncode(b, rs.MustNew(10, 2), 10, 12) }
func BenchmarkRSEncode_17_3(b *testing.B)  { benchmarkEncode(b, rs.MustNew(17, 3), 17, 20) }
func BenchmarkRSEncode_28_12(b *testing.B) { benchmarkEncode(b, rs.MustNew(28, 12), 28, 40) }

func BenchmarkLRCEncode_14_2_4(b *testing.B) { benchmarkEncode(b, lrc.MustNew(14, 2, 4), 14, 20) }

func BenchmarkRSVerify_17_3(b *testing.B) {
	codec := rs.MustNew(17, 3)
	shards := encodedStripe(b, codec, 17, 20, 2)
	b.SetBytes(17 * benchShardBytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ok, err := codec.Verify(shards); err != nil || !ok {
			b.Fatal(ok, err)
		}
	}
}

// benchmarkReconstruct times rebuilding the lost shards of one stripe;
// throughput counts the bytes rebuilt.
func benchmarkReconstruct(b *testing.B, codec benchCodec, k, total int, lost []int) {
	ref := encodedStripe(b, codec, k, total, 3)
	shards := make([][]byte, total)
	b.SetBytes(int64(len(lost)) * benchShardBytes)
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

func BenchmarkRSReconstruct_17_3(b *testing.B) {
	benchmarkReconstruct(b, rs.MustNew(17, 3), 17, 20, []int{0, 7, 19})
}

// One loss in a group (XOR repair) plus two in the other and a global
// parity (the global solve).
func BenchmarkLRCReconstruct_14_2_4(b *testing.B) {
	benchmarkReconstruct(b, lrc.MustNew(14, 2, 4), 14, 20, []int{0, 7, 8, 16})
}

func BenchmarkBurstConditionalPDL(b *testing.B) {
	l := placement.MustNewLayout(topology.Default(), placement.DefaultParams(), placement.SchemeDD)
	ev := burst.NewMLECEvaluator(l)
	rng := rand.New(rand.NewSource(4))
	layout, err := burst.SampleLayout(rng, 60, 960, 3, 60)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ev.ConditionalPDL(layout)
	}
}

func BenchmarkClusterWrite(b *testing.B) {
	topo := topology.Default()
	topo.Racks = 6
	topo.EnclosuresPerRack = 2
	topo.DisksPerEnclosure = 12
	data := make([]byte, 64<<10)
	rand.New(rand.NewSource(5)).Read(data)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys, err := NewSystem(Config{
			Topology: topo,
			Params:   Params{KN: 2, PN: 1, KL: 4, PL: 2},
			Scheme:   SchemeCD, ChunkBytes: 4 << 10, Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if err := sys.Write("obj", data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSysSimFullScale(b *testing.B) {
	// One simulated year of the full 57,600-disk datacenter per
	// iteration — the paper's ">50,000 disks" simulation scale.
	cfg := SimulationConfig{
		Topology: DefaultTopology(),
		Params:   DefaultParams(),
		Scheme:   SchemeCD,
		Method:   RepairMinimum,
	}
	var failures int
	for i := 0; i < b.N; i++ {
		stats, err := Simulate(cfg, 1, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		failures = stats.DiskFailures
	}
	b.ReportMetric(float64(failures), "disk-failures/yr")
}
