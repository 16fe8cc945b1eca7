package mlec

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
)

// smallConfig returns a System config small enough for fast tests.
func smallConfig(scheme Scheme) Config {
	topo := DefaultTopology()
	topo.Racks = 6
	topo.EnclosuresPerRack = 2
	topo.DisksPerEnclosure = 12
	return Config{
		Topology:   topo,
		Params:     Params{KN: 2, PN: 1, KL: 4, PL: 2},
		Scheme:     scheme,
		ChunkBytes: 512,
		Seed:       3,
	}
}

func TestSystemLifecycle(t *testing.T) {
	s, err := NewSystem(smallConfig(SchemeCD))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 3*s.ObjectStripeBytes()+100)
	rand.New(rand.NewSource(1)).Read(data)
	if err := s.Write("doc", data); err != nil {
		t.Fatal(err)
	}
	got, err := s.Read("doc")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatal("round trip mismatch")
	}

	// Inject a catastrophic burst into enclosure 0.
	for i := 0; i < 7; i++ {
		s.FailDiskIndex(i)
	}
	rep := s.Report()
	if rep.AffectedLocalStripes == 0 {
		t.Fatal("no damage reported")
	}
	if err := s.Repair(RepairMinimum); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Read("doc"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("post-repair read: %v", err)
	}
	if tr := s.Traffic(); tr.LocalRead == 0 && tr.CrossRackTotal() == 0 {
		t.Error("repair moved no bytes")
	}
	s.ResetTraffic()
	if s.Traffic().CrossRackTotal() != 0 {
		t.Error("ResetTraffic did not clear meters")
	}
}

func TestSystemDataLoss(t *testing.T) {
	s, err := NewSystem(smallConfig(SchemeCC))
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, s.ObjectStripeBytes())
	rand.New(rand.NewSource(2)).Read(data)
	if err := s.Write("doc", data); err != nil {
		t.Fatal(err)
	}
	// Kill pn+1 aligned pools beyond local tolerance.
	dpr := smallConfig(SchemeCC).Topology.DisksPerRack()
	for _, d := range []int{0, 1, 2, dpr, dpr + 1, dpr + 2} {
		s.FailDiskIndex(d)
	}
	if _, err := s.Read("doc"); !errors.Is(err, ErrDataLoss) {
		t.Fatalf("err = %v, want ErrDataLoss", err)
	}
}

func TestFailDiskByID(t *testing.T) {
	s, _ := NewSystem(smallConfig(SchemeCC))
	s.FailDisk(DiskID{Rack: 1, Enclosure: 0, Disk: 5})
	data := make([]byte, s.ObjectStripeBytes())
	if err := s.Write("x", data); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Read("x"); err != nil {
		t.Fatal(err)
	}
}

func TestBurstPDLAPI(t *testing.T) {
	topo := DefaultTopology()
	pdl, lo, hi, err := BurstPDL(topo, DefaultParams(), SchemeCC, 2, 60, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pdl != 0 || lo != 0 {
		t.Errorf("x ≤ pn must give PDL 0, got %g", pdl)
	}
	_ = hi
	if _, _, _, err := BurstPDL(topo, Params{KN: 0}, SchemeCC, 1, 1, 10, 1); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestAnalyzeRepairAPI(t *testing.T) {
	costs, err := AnalyzeRepair(DefaultTopology(), DefaultParams(), SchemeCD)
	if err != nil {
		t.Fatal(err)
	}
	if len(costs) != 4 {
		t.Fatalf("%d methods", len(costs))
	}
	if costs[0].Method != RepairAll || costs[3].Method != RepairMinimum {
		t.Error("method order wrong")
	}
	if !(costs[0].CrossRackTrafficBytes > costs[3].CrossRackTrafficBytes) {
		t.Error("R_ALL must move more than R_MIN")
	}
}

func TestAnalyzeBandwidthAPI(t *testing.T) {
	bw, err := AnalyzeBandwidth(DefaultTopology(), DefaultParams(), SchemeDC)
	if err != nil {
		t.Fatal(err)
	}
	if bw.PoolRepairBW < 1.3e9 || bw.PoolRepairBW > 1.4e9 {
		t.Errorf("D/C pool repair BW %g, want ≈1363 MB/s", bw.PoolRepairBW)
	}
}

func TestEstimateDurabilityAPI(t *testing.T) {
	ests, err := EstimateDurability(DefaultTopology(), DefaultParams(), SchemeCD, DurabilityOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ests) != 4 {
		t.Fatalf("%d estimates", len(ests))
	}
	prev := -1.0
	for _, e := range ests {
		if e.Nines < prev {
			t.Errorf("nines decreased at %v", e.Method)
		}
		prev = e.Nines
	}
}

func TestEncodingThroughputAPI(t *testing.T) {
	v, err := EncodingThroughput(DefaultParams(), 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if v <= 0 {
		t.Error("zero throughput")
	}
}

func TestExperimentRegistryAPI(t *testing.T) {
	ids := Experiments()
	if len(ids) < 15 {
		t.Fatalf("only %d experiments", len(ids))
	}
	if DescribeExperiment("fig8") == "" {
		t.Error("missing description")
	}
	var sb strings.Builder
	if err := RunExperiment("tab2", ExperimentOptions{Quick: true, Seed: 1}, &sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "Table 2") {
		t.Error("tab2 output missing")
	}
}

func TestSystemScrub(t *testing.T) {
	s, _ := NewSystem(smallConfig(SchemeCC))
	data := make([]byte, s.ObjectStripeBytes())
	rand.New(rand.NewSource(5)).Read(data)
	if err := s.Write("doc", data); err != nil {
		t.Fatal(err)
	}
	rep, err := s.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || rep.LocalStripesChecked == 0 {
		t.Fatalf("scrub report %+v", rep)
	}
}

func TestSimulateAPI(t *testing.T) {
	topo := DefaultTopology()
	topo.Racks = 6
	topo.EnclosuresPerRack = 1
	topo.DisksPerEnclosure = 12
	stats, err := Simulate(SimulationConfig{
		Topology: topo,
		Params:   Params{KN: 2, PN: 1, KL: 4, PL: 2},
		Scheme:   SchemeCD,
		Method:   RepairMinimum,
		AFR:      0.3,
	}, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.DiskFailures == 0 || stats.SimYears != 50 {
		t.Fatalf("stats %+v", stats)
	}
	if _, err := Simulate(SimulationConfig{Topology: topo, Params: Params{KN: 0}}, 1, 1); err == nil {
		t.Error("invalid params accepted")
	}
}

func TestSystemRebalance(t *testing.T) {
	s, _ := NewSystem(smallConfig(SchemeCD))
	data := make([]byte, 4*s.ObjectStripeBytes())
	rand.New(rand.NewSource(8)).Read(data)
	if err := s.Write("doc", data); err != nil {
		t.Fatal(err)
	}
	s.FailDiskIndex(0)
	if err := s.Repair(RepairHybrid); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Rebalance(); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Read("doc"); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("read after rebalance: %v", err)
	}
	// Clustered layouts reject rebalance.
	cc, _ := NewSystem(smallConfig(SchemeCC))
	if _, err := cc.Rebalance(); err == nil {
		t.Error("rebalance accepted on clustered layout")
	}
}

// TestAFROutOfRangeRejected: each AFR-taking entry point refuses an AFR
// below 0 or at/above 1 instead of silently computing the 1% numbers;
// 0 keeps meaning "default 1%".
func TestAFROutOfRangeRejected(t *testing.T) {
	ctx := context.Background()
	topo := DefaultTopology()
	topo.Racks = 6
	topo.EnclosuresPerRack = 1
	topo.DisksPerEnclosure = 12
	simCfg := func(afr float64) SimulationConfig {
		return SimulationConfig{Topology: topo, Params: Params{KN: 2, PN: 1, KL: 4, PL: 2},
			Scheme: SchemeCD, Method: RepairMinimum, AFR: afr}
	}
	entries := map[string]func(afr float64) error{
		"EstimateDurabilityContext": func(afr float64) error {
			_, err := EstimateDurabilityContext(ctx, DefaultTopology(), DefaultParams(), SchemeCD, DurabilityOptions{AFR: afr})
			return err
		},
		"SimulateContext": func(afr float64) error {
			_, err := SimulateContext(ctx, simCfg(afr), 1, 1)
			return err
		},
		"RunExperimentContext": func(afr float64) error {
			return RunExperimentContext(ctx, "tab2", ExperimentOptions{Quick: true, Seed: 1, AFR: afr}, io.Discard)
		},
	}
	for name, run := range entries {
		t.Run(name, func(t *testing.T) {
			for _, afr := range []float64{-0.5, 1, 1.5, math.NaN()} {
				if err := run(afr); err == nil || !strings.Contains(err.Error(), "AFR") {
					t.Errorf("AFR %v: err %v, want an AFR range error", afr, err)
				}
			}
			if err := run(0); err != nil {
				t.Errorf("AFR 0 (default): %v", err)
			}
		})
	}
}
