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
	"context"
	"math/rand"
	"testing"

	"mlec/internal/burst"
	"mlec/internal/experiments"
	"mlec/internal/kernelbench"
	"mlec/internal/placement"
	"mlec/internal/repair"
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
		r, err := experiments.Fig5Context(context.Background(), benchOpts(i))
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
		r, err := experiments.Fig7Context(context.Background(), benchOpts(i))
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
		r, err := experiments.Fig10Context(context.Background(), benchOpts(i))
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
		r, err := experiments.Fig13Context(context.Background(), benchOpts(i))
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
		if _, err := experiments.Fig16Context(context.Background(), benchOpts(i)); err != nil {
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

// BenchmarkKernels runs the rows of `mlecbench kernels` (the kernelbench
// table) as sub-benchmarks: same 128 KiB shards, same seeds, same work.
func BenchmarkKernels(b *testing.B) {
	for _, k := range kernelbench.All() {
		b.Run(k.Name, k.Fn)
	}
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
