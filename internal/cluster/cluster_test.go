package cluster

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"mlec/internal/placement"
	"mlec/internal/repair"
	"mlec/internal/topology"
)

// smallConfig: 6 racks × 2 enclosures × 8 disks, (2+1)/(4+2) MLEC,
// 1 KiB chunks — small enough to exhaustively exercise, wide enough to
// be interesting (pl = 2 tolerates double chunk loss locally).
func smallConfig(scheme placement.Scheme) Config {
	topo := topology.Default()
	topo.Racks = 6
	topo.EnclosuresPerRack = 2
	topo.DisksPerEnclosure = 12
	return Config{
		Topo:       topo,
		Params:     placement.Params{KN: 2, PN: 1, KL: 4, PL: 2},
		Scheme:     scheme,
		ChunkBytes: 1024,
		Seed:       42,
	}
}

func randomData(n int, seed int64) []byte {
	b := make([]byte, n)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

func TestWriteReadRoundTrip(t *testing.T) {
	for _, s := range placement.AllSchemes {
		c, err := New(smallConfig(s))
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		// Odd size forces padding; multiple network stripes.
		data := randomData(3*c.NetStripeDataBytes()/2+17, 1)
		if err := c.Write("obj", data); err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		got, err := c.Read("obj")
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%v: round trip mismatch", s)
		}
	}
}

func TestWriteValidation(t *testing.T) {
	c, _ := New(smallConfig(placement.SchemeCC))
	if err := c.Write("x", nil); err == nil {
		t.Error("empty object accepted")
	}
	if err := c.Write("a", []byte{1}); err != nil {
		t.Fatal(err)
	}
	if err := c.Write("a", []byte{2}); err == nil {
		t.Error("duplicate object accepted")
	}
	if _, err := c.Read("missing"); err == nil {
		t.Error("read of missing object succeeded")
	}
}

func TestDegradedReadSingleDisk(t *testing.T) {
	for _, s := range placement.AllSchemes {
		c, _ := New(smallConfig(s))
		data := randomData(c.NetStripeDataBytes(), 2)
		if err := c.Write("obj", data); err != nil {
			t.Fatal(err)
		}
		// Fail a couple of disks; local pl=2 handles ≤2 chunk losses
		// per stripe, network pn=1 handles a lost stripe.
		c.FailDisk(0)
		c.FailDisk(1)
		got, err := c.Read("obj")
		if err != nil {
			t.Fatalf("%v: degraded read: %v", s, err)
		}
		if !bytes.Equal(got, data) {
			t.Fatalf("%v: degraded read corrupted data", s)
		}
	}
}

func TestDataLossBeyondTolerance(t *testing.T) {
	// C/C with known placement: kill pn+1 = 2 aligned local pools
	// beyond local tolerance → the read must fail with ErrDataLoss.
	c, _ := New(smallConfig(placement.SchemeCC))
	data := randomData(c.NetStripeDataBytes(), 3)
	if err := c.Write("obj", data); err != nil {
		t.Fatal(err)
	}
	// Network pool 0 = pool position 0 in racks 0,1,2 (kn+pn = 3).
	// Kill 3 disks (> pl = 2) of the position-0 pool in racks 0 and 1.
	dpr := c.cfg.Topo.DisksPerRack()
	for _, d := range []int{0, 1, 2, dpr + 0, dpr + 1, dpr + 2} {
		c.FailDisk(d)
	}
	_, err := c.Read("obj")
	if !errors.Is(err, ErrDataLoss) {
		t.Fatalf("err = %v, want ErrDataLoss", err)
	}
}

func TestRepairRestoresAllMethods(t *testing.T) {
	for _, s := range placement.AllSchemes {
		for _, m := range repair.AllMethods {
			c, _ := New(smallConfig(s))
			objs := map[string][]byte{}
			for i, name := range []string{"a", "b", "c"} {
				data := randomData(c.NetStripeDataBytes()+i*333+1, int64(10+i))
				if err := c.Write(name, data); err != nil {
					t.Fatal(err)
				}
				objs[name] = data
			}
			// Catastrophic failure: pl+1 = 3 disks of one local pool.
			// Pool 0 starts at disk 0 for every scheme.
			c.FailDisk(0)
			c.FailDisk(1)
			c.FailDisk(2)
			if err := c.Repair(m); err != nil {
				t.Fatalf("%v/%v: repair: %v", s, m, err)
			}
			if err := c.VerifyAll(objs); err != nil {
				t.Fatalf("%v/%v: after repair: %v", s, m, err)
			}
			if pools := c.CatastrophicPools(); len(pools) != 0 {
				t.Fatalf("%v/%v: catastrophic pools remain: %v", s, m, pools)
			}
		}
	}
}

// TestRepairRejectsUnknownMethod: a method outside the four is refused
// before Repair replaces a disk or rebuilds a chunk, on a healthy
// cluster and on one with a catastrophic pool alike.
func TestRepairRejectsUnknownMethod(t *testing.T) {
	for _, failed := range [][]int{nil, {0, 1, 2}} {
		c, _ := New(smallConfig(placement.SchemeCC))
		if err := c.Write("obj", randomData(2*c.NetStripeDataBytes(), 6)); err != nil {
			t.Fatal(err)
		}
		for _, d := range failed {
			c.FailDisk(d)
		}
		before, cat := c.Report(), c.CatastrophicPools()
		if (len(cat) > 0) != (failed != nil) {
			t.Fatalf("failed %v: catastrophic pools %v", failed, cat)
		}
		if err := c.Repair(repair.Method(42)); !errors.Is(err, repair.ErrUnknownMethod) {
			t.Errorf("failed %v: Repair(Method(42)) = %v, want ErrUnknownMethod", failed, err)
		}
		if after := c.Report(); after != before {
			t.Errorf("failed %v: refused repair changed the report: %+v → %+v", failed, before, after)
		}
		if got := c.CatastrophicPools(); !reflect.DeepEqual(got, cat) {
			t.Errorf("failed %v: refused repair changed the catastrophic pools: %v → %v", failed, cat, got)
		}
		for _, d := range failed {
			if !c.disks[d].failed {
				t.Errorf("failed %v: refused repair replaced disk %d", failed, d)
			}
		}
	}
}

func TestCatastrophicPoolsDetection(t *testing.T) {
	c, _ := New(smallConfig(placement.SchemeCC))
	data := randomData(2*c.NetStripeDataBytes(), 5)
	if err := c.Write("obj", data); err != nil {
		t.Fatal(err)
	}
	if got := c.CatastrophicPools(); len(got) != 0 {
		t.Fatalf("healthy cluster reports catastrophic pools %v", got)
	}
	// ≤ pl failures: not catastrophic.
	c.FailDisk(0)
	c.FailDisk(1)
	if got := c.CatastrophicPools(); len(got) != 0 {
		t.Fatalf("2 failures (≤ pl) reported catastrophic: %v", got)
	}
	c.FailDisk(2)
	got := c.CatastrophicPools()
	if len(got) != 1 || got[0] != c.layout.PoolOfDisk(0) {
		t.Fatalf("CatastrophicPools = %v, want [%d]", got, c.layout.PoolOfDisk(0))
	}
}

// TestRepairTrafficOrdering verifies — with real byte movement — the
// Figure 8 ordering R_ALL > R_FCO ≥ R_HYB ≥ R_MIN and the paper's key
// ratios for clustered and declustered local placement.
func TestRepairTrafficOrdering(t *testing.T) {
	measure := func(s placement.Scheme, m repair.Method) float64 {
		c, _ := New(smallConfig(s))
		// Several objects so the pool holds many stripes.
		objs := map[string][]byte{}
		for i := 0; i < 24; i++ {
			name := string(rune('a' + i))
			data := randomData(2*c.NetStripeDataBytes(), int64(i))
			if err := c.Write(name, data); err != nil {
				t.Fatal(err)
			}
			objs[name] = data
		}
		// Fail disks of enclosure 0 until its pool turns catastrophic:
		// 3 suffice for a clustered pool; a declustered pool needs more
		// before some stripe exceeds pl losses (that absorption is the
		// point of declustering). All failures stay in one rack, so the
		// network level (pn = 1) always recovers.
		next := 0
		for len(c.CatastrophicPools()) == 0 {
			if next >= c.cfg.Topo.DisksPerEnclosure {
				t.Fatalf("%v: could not provoke a catastrophic pool", s)
			}
			c.FailDisk(next)
			next++
		}
		c.ResetTraffic()
		if err := c.Repair(m); err != nil {
			t.Fatalf("%v/%v: %v", s, m, err)
		}
		if err := c.VerifyAll(objs); err != nil {
			t.Fatalf("%v/%v: verify: %v", s, m, err)
		}
		return c.CrossRackTotal()
	}

	for _, s := range []placement.Scheme{placement.SchemeCC, placement.SchemeCD} {
		all := measure(s, repair.RAll)
		fco := measure(s, repair.RFCO)
		hyb := measure(s, repair.RHYB)
		min := measure(s, repair.RMin)
		t.Logf("%v cross-rack bytes: R_ALL=%.0f R_FCO=%.0f R_HYB=%.0f R_MIN=%.0f", s, all, fco, hyb, min)
		if !(all > fco && fco >= hyb && hyb >= min && min > 0) {
			t.Errorf("%v: ordering violated: %v %v %v %v", s, all, fco, hyb, min)
		}
	}

	// Declustered local pools make R_HYB dramatically cheaper than
	// R_FCO (only the few lost stripes cross the network), while on
	// clustered pools under a simultaneous burst they coincide.
	cdFco := measure(placement.SchemeCD, repair.RFCO)
	cdHyb := measure(placement.SchemeCD, repair.RHYB)
	if cdHyb >= cdFco/2 {
		t.Errorf("C/D: R_HYB (%.0f) should be far below R_FCO (%.0f)", cdHyb, cdFco)
	}
	ccFco := measure(placement.SchemeCC, repair.RFCO)
	ccHyb := measure(placement.SchemeCC, repair.RHYB)
	if ccHyb != ccFco {
		t.Errorf("C/C: R_HYB (%.0f) must equal R_FCO (%.0f) under a simultaneous burst", ccHyb, ccFco)
	}
}

// TestRMinTrafficRatio: R_MIN's network stage repairs (lost−pl)/lost of
// the failed data — for a 3-loss stripe with pl=2, one third of R_FCO's
// chunk volume (modulo parity-chunk accounting).
func TestRMinTrafficRatio(t *testing.T) {
	c, _ := New(smallConfig(placement.SchemeCC))
	data := randomData(4*c.NetStripeDataBytes(), 9)
	if err := c.Write("obj", data); err != nil {
		t.Fatal(err)
	}
	c.FailDisk(0)
	c.FailDisk(1)
	c.FailDisk(2)
	c.ResetTraffic()
	if err := c.Repair(repair.RMin); err != nil {
		t.Fatal(err)
	}
	minTraffic := c.CrossRackTotal()
	if minTraffic <= 0 {
		t.Fatal("R_MIN moved no cross-rack bytes")
	}
	if c.LocalRead == 0 || c.LocalWritten == 0 {
		t.Error("R_MIN stage 2 must do local repair I/O")
	}
}

func TestReplaceDisk(t *testing.T) {
	c, _ := New(smallConfig(placement.SchemeCC))
	c.FailDisk(3)
	if !c.disks[3].failed {
		t.Fatal("disk not failed")
	}
	c.ReplaceDisk(3)
	if c.disks[3].failed {
		t.Fatal("disk not replaced")
	}
}

func TestFailDiskAt(t *testing.T) {
	c, _ := New(smallConfig(placement.SchemeCC))
	id := topology.DiskID{Rack: 2, Enclosure: 1, Disk: 3}
	c.FailDiskAt(id)
	if !c.disks[c.cfg.Topo.Index(id)].failed {
		t.Fatal("FailDiskAt missed")
	}
}

func TestTrafficMetersUserReadsNotCounted(t *testing.T) {
	c, _ := New(smallConfig(placement.SchemeCD))
	data := randomData(c.NetStripeDataBytes(), 11)
	if err := c.Write("obj", data); err != nil {
		t.Fatal(err)
	}
	c.FailDisk(0)
	c.ResetTraffic()
	if _, err := c.Read("obj"); err != nil {
		t.Fatal(err)
	}
	if c.CrossRackTotal() != 0 || c.LocalRead != 0 {
		t.Error("user reads must not move the repair-traffic meters")
	}
}

func TestDeleteAndList(t *testing.T) {
	c, _ := New(smallConfig(placement.SchemeCD))
	if err := c.Write("a", randomData(1000, 1)); err != nil {
		t.Fatal(err)
	}
	if err := c.Write("b", randomData(2000, 2)); err != nil {
		t.Fatal(err)
	}
	if n, err := c.ObjectSize("b"); err != nil || n != 2000 {
		t.Fatalf("ObjectSize = %d, %v", n, err)
	}
	if got := len(c.Objects()); got != 2 {
		t.Fatalf("Objects = %d", got)
	}
	if err := c.Delete("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read("a"); err == nil {
		t.Fatal("read of deleted object succeeded")
	}
	if err := c.Delete("a"); err == nil {
		t.Fatal("double delete succeeded")
	}
	// Deleted chunks are gone from every disk.
	for i, d := range c.disks {
		for key := range d.chunks {
			if key.obj == "a" {
				t.Fatalf("disk %d still holds chunk of deleted object", i)
			}
		}
	}
	// Remaining object unaffected.
	if _, err := c.Read("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ObjectSize("a"); err == nil {
		t.Fatal("ObjectSize of deleted object succeeded")
	}
}
