package poolsim

import (
	"fmt"
	"math/rand"
	"testing"

	"mlec/internal/sim"
)

// paperCpConfig is the paper's local-Cp pool: 20 disks, (17+3).
func paperCpConfig() Config {
	return Config{
		Disks: 20, Width: 20, Parity: 3, Clustered: true,
		SegmentsPerDisk: 100, DiskCapacityBytes: 20e12, DiskRepairBW: 40e6,
		DetectionDelayHours: 0.5,
	}
}

// paperDpConfig is the paper's local-Dp pool: 120 disks, (17+3) stripes.
func paperDpConfig(segments int) Config {
	return Config{
		Disks: 120, Width: 20, Parity: 3, Clustered: false,
		SegmentsPerDisk: segments, DiskCapacityBytes: 20e12, DiskRepairBW: 40e6,
		DetectionDelayHours: 0.5,
	}
}

func TestConfigValidate(t *testing.T) {
	good := paperCpConfig()
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bads := []func(*Config){
		func(c *Config) { c.Disks = 0 },
		func(c *Config) { c.Width = 1 },
		func(c *Config) { c.Parity = -1 },
		func(c *Config) { c.Parity = c.Width },
		func(c *Config) { c.Clustered = true; c.Disks = 21 },
		func(c *Config) { c.SegmentsPerDisk = 0 },
		func(c *Config) { c.DiskCapacityBytes = 0 },
		func(c *Config) { c.DetectionDelayHours = -1 },
		func(c *Config) { c.SegmentsPerDisk = 7 }, // 20·7 not divisible by 20... it is; use width change
	}
	for i, mod := range bads[:8] {
		c := paperCpConfig()
		mod(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	// Dp narrower than stripe.
	c := paperDpConfig(100)
	c.Disks = 10
	if err := c.Validate(); err == nil {
		t.Error("narrow Dp pool accepted")
	}
}

func TestConfigRepairBW(t *testing.T) {
	cp := paperCpConfig()
	if got := cp.RepairBW(1); got != 40e6 {
		t.Errorf("Cp bw(1) = %g", got)
	}
	if got := cp.RepairBW(3); got != 120e6 {
		t.Errorf("Cp bw(3) = %g", got)
	}
	dp := paperDpConfig(100)
	if got := dp.RepairBW(1); got != 119*40e6/18 {
		t.Errorf("Dp bw(1) = %g", got)
	}
	if got := dp.RepairBW(4); got != 116*40e6/18 {
		t.Errorf("Dp bw(4) = %g", got)
	}
}

func TestPoolFailHealBookkeeping(t *testing.T) {
	p, err := NewPool(paperCpConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Healthy() {
		t.Fatal("new pool not healthy")
	}
	if lost := p.FailDisk(0); lost != 0 {
		t.Fatalf("single failure lost %d stripes", lost)
	}
	if p.FailedDisks() != 1 || p.DetectedDisks() != 0 {
		t.Fatal("failed/detected counts wrong")
	}
	prof := p.Profile()
	if prof[1] != p.Cfg.Stripes() {
		t.Fatalf("profile[1] = %d, want all %d stripes", prof[1], p.Cfg.Stripes())
	}
	p.DetectDisk(0)
	if p.DetectedDisks() != 1 {
		t.Fatal("detection not recorded")
	}
	// Heal everything batch by batch.
	var b repairBatch
	for p.NextBatch(&b) {
		p.HealBatch(&b)
	}
	if !p.Healthy() {
		t.Fatal("pool not healthy after full repair")
	}
	if p.LostStripes() != 0 {
		t.Fatal("lost stripes after heal")
	}
}

func TestCatastropheDetectionClustered(t *testing.T) {
	p, _ := NewPool(paperCpConfig(), 2)
	// pl = 3: three failures are fine, the fourth is catastrophic.
	for d := 0; d < 3; d++ {
		if lost := p.FailDisk(d); lost != 0 {
			t.Fatalf("failure %d lost %d stripes", d, lost)
		}
	}
	lost := p.FailDisk(3)
	if lost != p.Cfg.Stripes() {
		t.Fatalf("4th failure lost %d stripes, want all %d", lost, p.Cfg.Stripes())
	}
	if p.LostStripes() != p.Cfg.Stripes() {
		t.Fatal("LostStripes mismatch")
	}
}

func TestCatastropheDetectionDeclustered(t *testing.T) {
	p, _ := NewPool(paperDpConfig(200), 3)
	for d := 0; d < 3; d++ {
		if lost := p.FailDisk(d); lost != 0 {
			t.Fatalf("failure %d lost stripes prematurely", d)
		}
	}
	// The 4th failure loses only stripes covering all 4 disks —
	// possibly zero at this granularity, but never all.
	lost := p.FailDisk(3)
	if lost == p.Cfg.Stripes() {
		t.Fatal("Dp pool lost every stripe")
	}
	if lost != p.LostStripes() {
		t.Fatalf("newly lost %d != LostStripes %d", lost, p.LostStripes())
	}
}

func TestDoubleFailurePanics(t *testing.T) {
	p, _ := NewPool(paperCpConfig(), 4)
	p.FailDisk(5)
	defer func() {
		if recover() == nil {
			t.Fatal("double failure did not panic")
		}
	}()
	p.FailDisk(5)
}

func TestCloneIndependence(t *testing.T) {
	p, _ := NewPool(paperDpConfig(60), 5)
	p.FailDisk(0)
	c := p.Clone()
	c.FailDisk(1)
	if p.FailedDisks() != 1 {
		t.Fatal("clone mutation leaked into original")
	}
	if c.FailedDisks() != 2 {
		t.Fatal("clone lost state")
	}
	p.HealAll()
	if c.FailedDisks() != 2 {
		t.Fatal("original HealAll leaked into clone")
	}
}

func TestBatchPriorityOrder(t *testing.T) {
	p, _ := NewPool(paperDpConfig(60), 6)
	p.FailDisk(0)
	p.FailDisk(1)
	p.DetectDisk(0)
	p.DetectDisk(1)
	var b repairBatch
	if !p.NextBatch(&b) {
		t.Fatal("no batch")
	}
	// Highest priority must be the stripes hit by both disks (if any
	// exist at this granularity) — priority equals max lost count.
	maxLost := 0
	prof := p.Profile()
	for j, n := range prof {
		if n > 0 && j > maxLost {
			maxLost = j
		}
	}
	if b.priority != maxLost {
		t.Fatalf("batch priority %d, want %d", b.priority, maxLost)
	}
}

func TestBatchCap(t *testing.T) {
	cfg := paperCpConfig()
	cfg.MaxBatchStripes = 7
	p, _ := NewPool(cfg, 7)
	p.FailDisk(0)
	p.DetectDisk(0)
	var b repairBatch
	p.NextBatch(&b)
	if len(b.stripes) != 7 {
		t.Fatalf("batch has %d stripes, want cap 7", len(b.stripes))
	}
}

func TestUndetectedNotRepairable(t *testing.T) {
	p, _ := NewPool(paperCpConfig(), 8)
	p.FailDisk(2)
	if p.NextBatch(new(repairBatch)) {
		t.Fatal("undetected failure produced a repair batch")
	}
}

func TestRandomHealthyDisk(t *testing.T) {
	p, _ := NewPool(paperCpConfig(), 9)
	rng := rand.New(rand.NewSource(1))
	for d := 0; d < 19; d++ {
		p.FailDisk(d)
	}
	for i := 0; i < 10; i++ {
		if got := p.RandomHealthyDisk(rng); got != 19 {
			t.Fatalf("RandomHealthyDisk = %d, want 19", got)
		}
	}
}

func TestSegmentAccounting(t *testing.T) {
	cfg := paperDpConfig(120)
	if got := cfg.Stripes(); got != 120*120/20 {
		t.Errorf("Stripes = %d", got)
	}
	if got := cfg.SegmentBytes(); got != 20e12/120 {
		t.Errorf("SegmentBytes = %g", got)
	}
	// Per-disk chunk counts must match SegmentsPerDisk exactly (the
	// declustered dealer balances perfectly when widths divide).
	p, _ := NewPool(cfg, 10)
	for d := 0; d < cfg.Disks; d++ {
		if n := setSize(p.set(p.diskSet, d)); n != cfg.SegmentsPerDisk {
			t.Fatalf("disk %d holds %d chunks, want %d", d, n, cfg.SegmentsPerDisk)
		}
	}
}

// BenchmarkPoolTransitions times the pool transitions of the repair rule
// on the paper's local pools (Cp: 20 disks, one stripe set word at 60
// segments; Dp: 120 disks, 6 and 12 words). One op: two disks fail and
// are detected, every batch is planned and healed until the pool is
// healthy, then a third disk fails and the machine is snapshotted and
// restored once.
func BenchmarkPoolTransitions(b *testing.B) {
	for _, segments := range []int{60, 120} {
		cp := paperCpConfig()
		cp.SegmentsPerDisk = segments
		for _, cfg := range []Config{cp, paperDpConfig(segments)} {
			name := fmt.Sprintf("Cp-%d", segments)
			if !cfg.Clustered {
				name = fmt.Sprintf("Dp-%d", segments)
			}
			b.Run(name, func(b *testing.B) {
				pool, err := NewPool(cfg, 1)
				if err != nil {
					b.Fatal(err)
				}
				m := NewMachine(pool, sim.New())
				var batch repairBatch
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					d := i % (cfg.Disks - 2)
					pool.FailDisk(d)
					pool.FailDisk(d + 1)
					pool.DetectDisk(d)
					pool.DetectDisk(d + 1)
					for pool.NextBatch(&batch) {
						pool.HealBatch(&batch)
					}
					m.Fail(d + 2)
					if err := m.Restore(m.Snapshot()); err != nil {
						b.Fatal(err)
					}
					m.HealAll()
				}
			})
		}
	}
}
