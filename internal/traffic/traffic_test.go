package traffic

import (
	"testing"

	"mlec/internal/markov"
	"mlec/internal/placement"
	"mlec/internal/repair"
	"mlec/internal/topology"
)

const lambda = 0.01 / 8760 // ≈1% AFR per hour

// TestNetworkSLECHundredsOfTBPerDay reproduces §5.1.4's headline: a (7+3)
// network SLEC on the paper's datacenter needs hundreds of TB of
// cross-rack repair traffic every day.
func TestNetworkSLECHundredsOfTBPerDay(t *testing.T) {
	topo := topology.Default()
	daily, err := NetworkSLECDailyBytes(topo, placement.SLECParams{K: 7, P: 3}, lambda)
	if err != nil {
		t.Fatal(err)
	}
	tb := daily / 1e12
	t.Logf("network (7+3) SLEC: %.0f TB/day", tb)
	if tb < 100 || tb > 1000 {
		t.Errorf("daily traffic %.0f TB outside the paper's 'hundreds of TB' band", tb)
	}
}

// TestMLECFewTBPerThousandsOfYears reproduces the MLEC side of §5.1.4.
func TestMLECFewTBPerThousandsOfYears(t *testing.T) {
	topo := topology.Default()
	l := placement.MustNewLayout(topo, placement.DefaultParams(), placement.SchemeCD)
	m := markov.MLECRAllModel{Layout: l, LambdaPerHour: lambda}
	catRate, err := m.CatRatePerPoolHour()
	if err != nil {
		t.Fatal(err)
	}
	yearly, err := MLECYearlyBytes(l, repair.RMin, catRate)
	if err != nil {
		t.Fatal(err)
	}
	yearsPerTB := 1e12 / yearly
	t.Logf("MLEC C/D R_MIN: %.3g TB/year → %.3g years per TB", yearly/1e12, yearsPerTB)
	if yearsPerTB < 1000 {
		t.Errorf("MLEC needs %g years per TB; the paper claims thousands", yearsPerTB)
	}
}

// TestLRCLessThanNetworkSLEC: §5.2.4 — LRC's local groups reduce repair
// traffic below network SLEC, but it remains substantial daily traffic.
func TestLRCLessThanNetworkSLEC(t *testing.T) {
	topo := topology.Default()
	slec, err := NetworkSLECDailyBytes(topo, placement.SLECParams{K: 14, P: 6}, lambda)
	if err != nil {
		t.Fatal(err)
	}
	lrcd, err := LRCDailyBytes(topo, placement.LRCParams{K: 14, L: 2, R: 4}, lambda)
	if err != nil {
		t.Fatal(err)
	}
	if lrcd >= slec {
		t.Errorf("LRC daily (%g) must be below equal-width network SLEC (%g)", lrcd, slec)
	}
	if lrcd < 1e12 {
		t.Errorf("LRC daily traffic %g suspiciously small — every repair crosses racks", lrcd)
	}
}

func TestCompare(t *testing.T) {
	topo := topology.Default()
	l := placement.MustNewLayout(topo, placement.DefaultParams(), placement.SchemeCD)
	m := markov.MLECRAllModel{Layout: l, LambdaPerHour: lambda}
	catRate, _ := m.CatRatePerPoolHour()
	// Equal-width comparison: (14+6) network SLEC reads k=14 chunks per
	// repair, the (14,2,4) LRC only its 7-chunk local group.
	c, err := Compare(topo, placement.SLECParams{K: 14, P: 6}, placement.LRCParams{K: 14, L: 2, R: 4},
		l, repair.RMin, lambda, catRate)
	if err != nil {
		t.Fatal(err)
	}
	if !(c.NetworkSLECDaily > c.LRCDaily && c.LRCDaily > 0) {
		t.Error("ordering NetworkSLEC > LRC > 0 violated")
	}
	if c.MLECYearsPerTB <= 0 {
		t.Error("MLECYearsPerTB not computed")
	}
	// MLEC's yearly traffic must be absurdly below SLEC's daily.
	if c.MLECYearly >= c.NetworkSLECDaily {
		t.Error("MLEC yearly traffic should be far below SLEC daily")
	}
}

func TestValidation(t *testing.T) {
	topo := topology.Default()
	if _, err := NetworkSLECDailyBytes(topo, placement.SLECParams{K: 0, P: 3}, lambda); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := LRCDailyBytes(topo, placement.LRCParams{K: 5, L: 2, R: 1}, lambda); err == nil {
		t.Error("k%l!=0 accepted")
	}
	l := placement.MustNewLayout(topo, placement.DefaultParams(), placement.SchemeCC)
	if _, err := MLECYearlyBytes(l, repair.RAll, -1); err == nil {
		t.Error("negative rate accepted")
	}
}

// TestMethodReducesTraffic: better repair methods reduce MLEC's long-run
// traffic in proportion to their per-event traffic.
func TestMethodReducesTraffic(t *testing.T) {
	topo := topology.Default()
	l := placement.MustNewLayout(topo, placement.DefaultParams(), placement.SchemeCD)
	prev := -1.0
	for _, m := range []repair.Method{repair.RMin, repair.RHYB, repair.RFCO, repair.RAll} {
		y, err := MLECYearlyBytes(l, m, 1e-10)
		if err != nil {
			t.Fatal(err)
		}
		if y <= prev {
			t.Errorf("%v yearly traffic %g not above the better method's %g", m, y, prev)
		}
		prev = y
	}
}
