package splitting

import (
	"math"
	"testing"

	"mlec/internal/failure"
	"mlec/internal/markov"
	"mlec/internal/mathx"
	"mlec/internal/placement"
	"mlec/internal/poolsim"
	"mlec/internal/repair"
	"mlec/internal/topology"
)

func layouts(t *testing.T) map[placement.Scheme]*placement.Layout {
	t.Helper()
	topo := topology.Default()
	params := placement.DefaultParams()
	m := map[placement.Scheme]*placement.Layout{}
	for _, s := range placement.AllSchemes {
		l, err := placement.NewLayout(topo, params, s)
		if err != nil {
			t.Fatal(err)
		}
		m[s] = l
	}
	return m
}

// stage1Fixture supplies plausible stage-1 numbers without running the
// pool simulator: Markov-style rates with the analytic φ.
func stage1Fixture(t *testing.T) map[placement.Kind]Stage1 {
	t.Helper()
	ls := layouts(t)
	lambda := mathx.AFR(0.01).LinearPerHour()
	out := map[placement.Kind]Stage1{}

	cp := markov.MLECRAllModel{Layout: ls[placement.SchemeCC], LambdaPerHour: lambda}
	cpRate, err := cp.CatRatePerPoolHour()
	if err != nil {
		t.Fatal(err)
	}
	out[placement.Clustered] = Stage1{
		CatRatePerPoolHour: cpRate, FailedDisksAtCat: 4, LostStripeFraction: 1,
	}

	dp := markov.MLECRAllModel{Layout: ls[placement.SchemeCD], LambdaPerHour: lambda}
	dpRate, err := dp.CatRatePerPoolHour()
	if err != nil {
		t.Fatal(err)
	}
	out[placement.Declustered] = Stage1{
		CatRatePerPoolHour: dpRate, FailedDisksAtCat: 4,
		LostStripeFraction: 5.9e-4, // hypergeometric φ(4) for (17+3) over 120
	}
	return out
}

// TestFig10MethodOrdering: durability must improve monotonically
// R_ALL → R_FCO → R_HYB → R_MIN for every scheme (§4.2.3).
func TestFig10MethodOrdering(t *testing.T) {
	rows, err := Fig10(layouts(t), stage1Fixture(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, row := range rows {
		prev := -math.MaxFloat64
		for _, m := range repair.AllMethods {
			n := row.Results[int(m)].Nines
			if n < prev-1e-9 {
				t.Errorf("%v: nines dropped at %v (%.2f < %.2f)", row.Scheme, m, n, prev)
			}
			prev = n
		}
	}
}

// TestFig10FindingGains checks the magnitude bands of §4.2.3 F#1–F#3:
// R_FCO gains 0.9–6.6 nines over R_ALL (largest in D/D), R_HYB adds
// 0.6–4.1 (largest in */D), R_MIN adds up to ~1.2 (largest in C/C).
func TestFig10FindingGains(t *testing.T) {
	rows, err := Fig10(layouts(t), stage1Fixture(t))
	if err != nil {
		t.Fatal(err)
	}
	byScheme := map[placement.Scheme]Fig10Row{}
	for _, r := range rows {
		byScheme[r.Scheme] = r
	}
	gain := func(s placement.Scheme, from, to repair.Method) float64 {
		return byScheme[s].Results[int(to)].Nines - byScheme[s].Results[int(from)].Nines
	}

	// F#1: R_FCO's biggest win is on D/D (window shrink × chunk
	// knowledge), far exceeding its C/C win.
	ddGain := gain(placement.SchemeDD, repair.RAll, repair.RFCO)
	ccGain := gain(placement.SchemeCC, repair.RAll, repair.RFCO)
	t.Logf("F#1 R_ALL→R_FCO: C/C +%.1f, D/D +%.1f nines", ccGain, ddGain)
	if ddGain <= ccGain {
		t.Errorf("F#1: D/D gain (%.1f) must exceed C/C gain (%.1f)", ddGain, ccGain)
	}
	if ccGain < 0.3 || ccGain > 3 {
		t.Errorf("F#1: C/C gain %.1f outside the paper's ≈0.9-nine band", ccGain)
	}
	if ddGain < 3 || ddGain > 10 {
		t.Errorf("F#1: D/D gain %.1f outside the paper's ≈6.6-nine band", ddGain)
	}

	// F#2: R_HYB's gain is most apparent on */D.
	cdHyb := gain(placement.SchemeCD, repair.RFCO, repair.RHYB)
	ccHyb := gain(placement.SchemeCC, repair.RFCO, repair.RHYB)
	t.Logf("F#2 R_FCO→R_HYB: C/C +%.2f, C/D +%.2f nines", ccHyb, cdHyb)
	if cdHyb <= ccHyb {
		t.Errorf("F#2: C/D hybrid gain (%.2f) must exceed C/C's (%.2f)", cdHyb, ccHyb)
	}
	if cdHyb < 0.5 || cdHyb > 6 {
		t.Errorf("F#2: C/D hybrid gain %.2f outside the paper's ≈4-nine band", cdHyb)
	}

	// F#3: R_MIN's extra gain is largest on C/C and small on */D.
	ccMin := gain(placement.SchemeCC, repair.RHYB, repair.RMin)
	cdMin := gain(placement.SchemeCD, repair.RHYB, repair.RMin)
	t.Logf("F#3 R_HYB→R_MIN: C/C +%.2f, C/D +%.2f nines", ccMin, cdMin)
	if ccMin <= cdMin {
		t.Errorf("F#3: C/C R_MIN gain (%.2f) must exceed C/D's (%.2f)", ccMin, cdMin)
	}
	if ccMin < 0.1 || ccMin > 2 {
		t.Errorf("F#3: C/C R_MIN gain %.2f outside the paper's ≈1.2-nine band", ccMin)
	}
}

// TestFig10FinalOrdering: with all optimizations (R_MIN), C/D and D/D
// provide the best durability and D/C the worst (§4.2.3 F#4).
func TestFig10FinalOrdering(t *testing.T) {
	rows, err := Fig10(layouts(t), stage1Fixture(t))
	if err != nil {
		t.Fatal(err)
	}
	nines := map[placement.Scheme]float64{}
	for _, r := range rows {
		nines[r.Scheme] = r.Results[int(repair.RMin)].Nines
		t.Logf("%v R_MIN durability: %.1f nines", r.Scheme, nines[r.Scheme])
	}
	worst := placement.SchemeDC
	for s, n := range nines {
		if n < nines[worst] {
			worst = s
			_ = s
		}
	}
	if worst != placement.SchemeDC {
		t.Errorf("F#4: worst scheme is %v, want D/C", worst)
	}
	if !(nines[placement.SchemeCD] > nines[placement.SchemeCC]) {
		t.Errorf("F#4: C/D (%.1f) must beat C/C (%.1f)", nines[placement.SchemeCD], nines[placement.SchemeCC])
	}
	if !(nines[placement.SchemeDD] > nines[placement.SchemeDC]) {
		t.Errorf("F#4: D/D (%.1f) must beat D/C (%.1f)", nines[placement.SchemeDD], nines[placement.SchemeDC])
	}
}

// TestRAllMatchesMarkov: under R_ALL with Markov stage-1 inputs, the
// stage-2 composition must land within ~1.5 orders of magnitude of the
// pure Markov system model — the paper's model-vs-simulation
// cross-verification (§6.2).
func TestRAllMatchesMarkov(t *testing.T) {
	ls := layouts(t)
	s1 := stage1Fixture(t)
	lambda := mathx.AFR(0.01).LinearPerHour()
	for _, s := range []placement.Scheme{placement.SchemeCC, placement.SchemeCD} {
		r, err := Durability(ls[s], repair.RAll, s1[s.Local], failure.DefaultDetectionDelayHours)
		if err != nil {
			t.Fatal(err)
		}
		m := markov.MLECRAllModel{Layout: ls[s], LambdaPerHour: lambda}
		pdl, err := m.SystemAnnualPDL()
		if err != nil {
			t.Fatal(err)
		}
		lr := math.Log10(float64(r.AnnualPDL / pdl))
		t.Logf("%v R_ALL: splitting PDL %.3g vs Markov %.3g (Δ %.2f orders)", s, r.AnnualPDL, pdl, lr)
		if math.Abs(lr) > 1.5 {
			t.Errorf("%v: splitting and Markov disagree by %.1f orders", s, lr)
		}
	}
}

func TestStage1FromSplit(t *testing.T) {
	cfg := poolsim.Config{
		Disks: 8, Width: 8, Parity: 2, Clustered: true,
		SegmentsPerDisk: 16, DiskCapacityBytes: 1e12, DiskRepairBW: 5e6,
		DetectionDelayHours: 0.5,
	}
	res := poolsim.SplitResult{CatRatePerPoolHour: 1e-7}
	s1 := Stage1FromSplit(cfg, res)
	if s1.CatRatePerPoolHour != 1e-7 {
		t.Error("rate not propagated")
	}
	if s1.FailedDisksAtCat != 3 {
		t.Errorf("FailedDisksAtCat = %d, want pl+1 = 3", s1.FailedDisksAtCat)
	}
	if s1.LostStripeFraction != 1 {
		t.Errorf("clustered φ = %g, want 1", s1.LostStripeFraction)
	}
	// With samples, the measured φ is used.
	res.Samples = []poolsim.CatSample{
		{FailedDisks: 3, LostStripes: 4},
		{FailedDisks: 3, LostStripes: 6},
	}
	s1 = Stage1FromSplit(cfg, res)
	wantPhi := 5.0 / float64(cfg.Stripes())
	if math.Abs(s1.LostStripeFraction-wantPhi) > 1e-12 {
		t.Errorf("sampled φ = %g, want %g", s1.LostStripeFraction, wantPhi)
	}
}

func TestDistinctRackFactor(t *testing.T) {
	topo := topology.Default()
	l := placement.MustNewLayout(topo, placement.DefaultParams(), placement.SchemeDD)
	f := distinctRackFactor(l, 3)
	if f <= 0.9 || f > 1 {
		t.Errorf("distinct-rack factor %g, want slightly below 1", f)
	}
	// More pools required → lower factor.
	if distinctRackFactor(l, 5) >= f {
		t.Error("factor must decrease with overlap size")
	}
}

func TestDurabilityWindowMonotone(t *testing.T) {
	// Faster catastrophic-exit (smaller window) must never hurt.
	ls := layouts(t)
	s1 := stage1Fixture(t)[placement.Clustered]
	r1, err := Durability(ls[placement.SchemeCC], repair.RAll, s1, failure.DefaultDetectionDelayHours)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Durability(ls[placement.SchemeCC], repair.RMin, s1, failure.DefaultDetectionDelayHours)
	if err != nil {
		t.Fatal(err)
	}
	if r2.WindowHours >= r1.WindowHours {
		t.Error("R_MIN window must be smaller than R_ALL's")
	}
	if r2.AnnualPDL > r1.AnnualPDL {
		t.Error("smaller window must not raise PDL")
	}
}
