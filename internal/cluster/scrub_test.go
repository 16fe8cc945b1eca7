package cluster

import (
	"testing"

	"mlec/internal/placement"
)

func TestScrubClean(t *testing.T) {
	c, _ := New(smallConfig(placement.SchemeCD))
	if err := c.Write("obj", randomData(2*c.NetStripeDataBytes(), 1)); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("pristine cluster failed scrub: %+v", rep)
	}
	if rep.LocalStripesChecked == 0 || rep.NetworkStripesChecked == 0 {
		t.Fatalf("scrub checked nothing: %+v", rep)
	}
}

func TestScrubDetectsLocalCorruption(t *testing.T) {
	c, _ := New(smallConfig(placement.SchemeCC))
	if err := c.Write("obj", randomData(c.NetStripeDataBytes(), 2)); err != nil {
		t.Fatal(err)
	}
	// Corrupt a data chunk: its local stripe fails verification, and so
	// does the network stripe that contains it.
	if err := c.CorruptChunk("obj", 0, 0, 1); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.LocalParityMismatches != 1 {
		t.Errorf("local mismatches %d, want 1", rep.LocalParityMismatches)
	}
	if rep.NetworkMismatches != 1 {
		t.Errorf("network mismatches %d, want 1", rep.NetworkMismatches)
	}
}

func TestScrubDetectsParityOnlyCorruption(t *testing.T) {
	c, _ := New(smallConfig(placement.SchemeCC))
	if err := c.Write("obj", randomData(c.NetStripeDataBytes(), 3)); err != nil {
		t.Fatal(err)
	}
	// Corrupt a local *parity* chunk: the local stripe mismatches, but
	// the network stripe (built from data payloads) stays consistent.
	if err := c.CorruptChunk("obj", 0, 0, c.cfg.Params.KL); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.LocalParityMismatches != 1 || rep.NetworkMismatches != 0 {
		t.Errorf("report %+v, want exactly one local mismatch", rep)
	}
}

func TestScrubSkipsDegraded(t *testing.T) {
	// C/C placement is deterministic: the first network stripe's first
	// local stripe occupies disks 0..5 of rack 0.
	c, _ := New(smallConfig(placement.SchemeCC))
	if err := c.Write("obj", randomData(c.NetStripeDataBytes(), 4)); err != nil {
		t.Fatal(err)
	}
	c.FailDisk(0)
	rep, err := c.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.SkippedDegraded == 0 {
		t.Error("degraded stripes not skipped")
	}
	if !rep.Clean() {
		t.Errorf("degraded-but-uncorrupted cluster failed scrub: %+v", rep)
	}
}

func TestCorruptChunkValidation(t *testing.T) {
	c, _ := New(smallConfig(placement.SchemeCC))
	if err := c.CorruptChunk("missing", 0, 0, 0); err == nil {
		t.Error("missing object accepted")
	}
	if err := c.Write("obj", randomData(64, 5)); err != nil {
		t.Fatal(err)
	}
	for _, idx := range [][3]int{{9, 0, 0}, {0, 9, 0}, {0, 0, 9}, {-1, 0, 0}, {0, -1, 0}, {0, 0, -1}} {
		if err := c.CorruptChunk("obj", idx[0], idx[1], idx[2]); err == nil {
			t.Errorf("CorruptChunk(stripe %d, member %d, chunk %d) accepted", idx[0], idx[1], idx[2])
		}
	}
}

// The network check runs one chunk column at a time; these pin its
// edges. Member kn is the first network parity member, and CorruptChunk
// flips a chunk's first byte, which lies in that chunk's own column.
func TestScrubFindsLastColumnOfParityMember(t *testing.T) {
	c, _ := New(smallConfig(placement.SchemeDD))
	if err := c.Write("obj", randomData(c.NetStripeDataBytes(), 6)); err != nil {
		t.Fatal(err)
	}
	p := c.cfg.Params
	if err := c.CorruptChunk("obj", 0, p.KN, p.KL-1); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.LocalParityMismatches != 1 || rep.NetworkMismatches != 1 {
		t.Errorf("report %+v, want one local and one network mismatch", rep)
	}
}

func TestScrubCountsANetworkStripeOnce(t *testing.T) {
	c, _ := New(smallConfig(placement.SchemeCD))
	if err := c.Write("obj", randomData(2*c.NetStripeDataBytes(), 7)); err != nil {
		t.Fatal(err)
	}
	// Columns 0 and kl−1 of network stripe 0, in two different members.
	if err := c.CorruptChunk("obj", 0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.CorruptChunk("obj", 0, 1, c.cfg.Params.KL-1); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.NetworkStripesChecked != 2 || rep.NetworkMismatches != 1 || rep.LocalParityMismatches != 2 {
		t.Errorf("report %+v, want 2 network stripes checked, 1 network and 2 local mismatches", rep)
	}
}
