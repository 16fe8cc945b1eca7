package syssim

import (
	"context"
	"math"
	"testing"

	"mlec/internal/placement"
	"mlec/internal/repair"
)

// TestSyssimStatsPinned holds the datacenter simulator to the exact Stats
// it produced before its local-repair logic moved onto poolsim.Machine:
// every repair method on a clustered/clustered and a declustered/
// declustered system, at a failure rate high enough that catastrophic
// pools, network repairs of every kind and data loss all occur. The
// machine keeps the order of rng draws and Engine.Schedule calls, so no
// count and no bit of the traffic total may move.
func TestSyssimStatsPinned(t *testing.T) {
	type pin struct {
		scheme      placement.Scheme
		method      repair.Method
		failures    int
		cats        int
		losses      int
		xrackBits   uint64
		maxCatPools int
		stranded    int
	}
	pins := []pin{
		{placement.SchemeCC, repair.RAll, 47032, 1617, 24, 0x4369d9f02db54800, 2, 0},
		{placement.SchemeCC, repair.RFCO, 46833, 1658, 0, 0x43526136c8748700, 2, 0},
		{placement.SchemeCC, repair.RHYB, 46425, 1824, 12, 0x4344c0b319dff600, 2, 0},
		{placement.SchemeCC, repair.RMin, 46573, 1944, 0, 0x432f8ff3702f4000, 2, 0},
		{placement.SchemeDD, repair.RAll, 47647, 2122, 412, 0x4380f661e87ae800, 2, 0},
		{placement.SchemeDD, repair.RFCO, 47905, 2148, 0, 0x435d0969f4547200, 2, 0},
		{placement.SchemeDD, repair.RHYB, 46827, 3206, 1, 0x433cd9c7730f4c00, 2, 0},
		{placement.SchemeDD, repair.RMin, 46624, 3764, 2, 0x432b9eddd6ce6800, 2, 0},
	}
	for _, p := range pins {
		s, err := RunContext(context.Background(), hotSystem(p.scheme, p.method, 0.9), 300, 17)
		if err != nil {
			t.Fatal(err)
		}
		if s.SimYears != 300 || s.Partial {
			t.Errorf("%v %v: SimYears %g, Partial %v", p.scheme, p.method, s.SimYears, s.Partial)
		}
		got := pin{p.scheme, p.method, s.DiskFailures, s.CatastrophicEvents, s.DataLossEvents,
			math.Float64bits(s.CrossRackRepairBytes), s.MaxConcurrentCatPools, s.StrandedStripes}
		if got != p {
			t.Errorf("%v %v: stats moved\n got %#v\nwant %#v", p.scheme, p.method, got, p)
		}
	}
}
