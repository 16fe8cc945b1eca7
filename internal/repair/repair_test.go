package repair

import (
	"errors"
	"math"
	"testing"

	"mlec/internal/placement"
	"mlec/internal/topology"
)

func analyzer(t *testing.T, s placement.Scheme) *Analyzer {
	t.Helper()
	l, err := placement.NewLayout(topology.Default(), placement.DefaultParams(), s)
	if err != nil {
		t.Fatal(err)
	}
	return NewAnalyzer(l)
}

func approx(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(math.Abs(a), math.Abs(b))
}

func burst(t *testing.T, a *Analyzer, m Method) Analysis {
	t.Helper()
	an, err := a.AnalyzeBurst(m)
	if err != nil {
		t.Fatal(err)
	}
	return an
}

func TestBurstProfileClustered(t *testing.T) {
	l := placement.MustNewLayout(topology.Default(), placement.DefaultParams(), placement.SchemeCC)
	prof := BurstProfile(l, 4)
	if len(prof) != 1 {
		t.Fatalf("Cp profile has %d entries, want 1", len(prof))
	}
	if got := prof[4]; got != l.LocalStripesPerPool() {
		t.Fatalf("Cp profile[4] = %g, want all %g stripes", got, l.LocalStripesPerPool())
	}
}

func TestBurstProfileDeclustered(t *testing.T) {
	l := placement.MustNewLayout(topology.Default(), placement.DefaultParams(), placement.SchemeCD)
	prof := BurstProfile(l, 4)
	// Total failed chunks must equal 4 disks' worth of chunks.
	var chunks float64
	for j, n := range prof {
		chunks += float64(j) * n
	}
	want := 4 * l.Topo.ChunksPerDisk()
	if !approx(chunks, want, 1e-9) {
		t.Fatalf("profile accounts for %g failed chunks, want %g", chunks, want)
	}
	// Lost stripes (j=4) are a tiny fraction ≈ 5.9e-4 of all stripes.
	frac := prof[4] / l.LocalStripesPerPool()
	if frac < 5.5e-4 || frac > 6.5e-4 {
		t.Fatalf("lost-stripe fraction %g, want ≈5.9e-4", frac)
	}
}

func TestBurstProfileZeroFailures(t *testing.T) {
	l := placement.MustNewLayout(topology.Default(), placement.DefaultParams(), placement.SchemeCC)
	if prof := BurstProfile(l, 0); len(prof) != 0 {
		t.Fatalf("zero-failure profile not empty: %v", prof)
	}
}

// TestFigure8Traffic checks the cross-rack traffic of Figure 8, whose
// values the paper states explicitly: R_ALL 4,400 TB (*/C) and 26,400 TB
// (*/D); R_FCO 880 TB; R_HYB 3.1 TB for */D; R_MIN ≥4× below R_HYB.
func TestFigure8Traffic(t *testing.T) {
	const TB = 1e12
	for _, s := range []placement.Scheme{placement.SchemeCC, placement.SchemeDC} {
		a := analyzer(t, s)
		if got := burst(t, a, RAll).CrossRackTrafficBytes / TB; !approx(got, 4400, 1e-6) {
			t.Errorf("%v R_ALL traffic %g TB, want 4400", s, got)
		}
		if got := burst(t, a, RFCO).CrossRackTrafficBytes / TB; !approx(got, 880, 1e-6) {
			t.Errorf("%v R_FCO traffic %g TB, want 880", s, got)
		}
		// Cp: R_HYB degenerates to R_FCO under a simultaneous burst.
		if got := burst(t, a, RHYB).CrossRackTrafficBytes / TB; !approx(got, 880, 1e-6) {
			t.Errorf("%v R_HYB traffic %g TB, want 880", s, got)
		}
		// R_MIN repairs 1 of 4 failed chunks per stripe → 220 TB.
		if got := burst(t, a, RMin).CrossRackTrafficBytes / TB; !approx(got, 220, 1e-6) {
			t.Errorf("%v R_MIN traffic %g TB, want 220", s, got)
		}
	}
	for _, s := range []placement.Scheme{placement.SchemeCD, placement.SchemeDD} {
		a := analyzer(t, s)
		if got := burst(t, a, RAll).CrossRackTrafficBytes / TB; !approx(got, 26400, 1e-6) {
			t.Errorf("%v R_ALL traffic %g TB, want 26400", s, got)
		}
		if got := burst(t, a, RFCO).CrossRackTrafficBytes / TB; !approx(got, 880, 1e-6) {
			t.Errorf("%v R_FCO traffic %g TB, want 880", s, got)
		}
		// The paper's 3.1 TB figure.
		if got := burst(t, a, RHYB).CrossRackTrafficBytes / TB; got < 2.8 || got > 3.4 {
			t.Errorf("%v R_HYB traffic %g TB, want ≈3.1", s, got)
		}
		hyb := burst(t, a, RHYB).CrossRackTrafficBytes
		min := burst(t, a, RMin).CrossRackTrafficBytes
		if ratio := hyb / min; ratio < 3.9 {
			t.Errorf("%v R_HYB/R_MIN traffic ratio %g, want ≥ 4", s, ratio)
		}
	}
}

// TestFigure9RepairTime checks the findings of §4.2.2.
func TestFigure9RepairTime(t *testing.T) {
	// F#1: R_FCO cuts the network repair time 5–30× vs R_ALL.
	for _, c := range []struct {
		s        placement.Scheme
		minRatio float64
		maxRatio float64
	}{
		{placement.SchemeCC, 4.5, 6}, // 444 h → 89 h  (~5×)
		{placement.SchemeCD, 25, 35}, // 2667 h → 89 h (~30×)
		{placement.SchemeDC, 4.5, 6}, // 81 h → 16 h   (~5×)
		{placement.SchemeDD, 25, 35}, // 489 h → 16 h  (~30×)
	} {
		a := analyzer(t, c.s)
		all := burst(t, a, RAll)
		fco := burst(t, a, RFCO)
		ratio := all.NetworkRepairHours / fco.NetworkRepairHours
		if ratio < c.minRatio || ratio > c.maxRatio {
			t.Errorf("F#1 %v: R_ALL/R_FCO net time ratio %.1f, want [%g,%g]",
				c.s, ratio, c.minRatio, c.maxRatio)
		}
		if all.LocalRepairHours != 0 || fco.LocalRepairHours != 0 {
			t.Errorf("F#1 %v: R_ALL/R_FCO must not use local repair", c.s)
		}
	}

	// F#2: on C/D, R_HYB trades network time for local time and lands
	// near R_FCO's total.
	cd := analyzer(t, placement.SchemeCD)
	fco := burst(t, cd, RFCO)
	hyb := burst(t, cd, RHYB)
	if hyb.NetworkRepairHours >= fco.NetworkRepairHours/10 {
		t.Errorf("F#2: C/D R_HYB network stage %.1f h not ≪ R_FCO %.1f h",
			hyb.NetworkRepairHours, fco.NetworkRepairHours)
	}
	if hyb.LocalRepairHours == 0 {
		t.Error("F#2: C/D R_HYB must induce local repair time")
	}
	if r := hyb.TotalHours / fco.TotalHours; r < 0.7 || r > 1.3 {
		t.Errorf("F#2: C/D R_HYB total %.1f h vs R_FCO %.1f h (ratio %.2f), want similar",
			hyb.TotalHours, fco.TotalHours, r)
	}

	// F#3: R_MIN minimizes the network stage everywhere but can take
	// longer in total (clearly visible on */C).
	for _, s := range placement.AllSchemes {
		a := analyzer(t, s)
		min := burst(t, a, RMin)
		for _, m := range []Method{RAll, RFCO, RHYB} {
			if other := burst(t, a, m); min.NetworkRepairHours > other.NetworkRepairHours+1e-9 {
				t.Errorf("F#3 %v: R_MIN network stage %.2f h exceeds %v's %.2f h",
					s, min.NetworkRepairHours, m, other.NetworkRepairHours)
			}
		}
	}
	cc := analyzer(t, placement.SchemeCC)
	if burst(t, cc, RMin).TotalHours <= burst(t, cc, RFCO).TotalHours {
		t.Error("F#3: C/C R_MIN total must exceed R_FCO total")
	}
}

func TestTrafficConservation(t *testing.T) {
	// Network + local repaired bytes must cover exactly the failed
	// bytes for R_FCO, R_HYB and R_MIN (R_ALL intentionally over-repairs).
	for _, s := range placement.AllSchemes {
		a := analyzer(t, s)
		failedBytes := 4 * a.Layout.Topo.DiskCapacityBytes
		for _, m := range []Method{RFCO, RHYB, RMin} {
			an := burst(t, a, m)
			if got := an.NetworkRepairBytes + an.LocalRepairBytes; !approx(got, failedBytes, 1e-9) {
				t.Errorf("%v %v repairs %g bytes, want %g", s, m, got, failedBytes)
			}
		}
		if an := burst(t, a, RAll); an.NetworkRepairBytes < failedBytes {
			t.Errorf("%v R_ALL repairs less than the failed bytes", s)
		}
	}
}

func TestCatastrophicWindowOrdering(t *testing.T) {
	// The exposure window must shrink monotonically R_ALL ≥ R_FCO ≥
	// R_HYB ≥ R_MIN for every scheme — the mechanism behind Figure 10's
	// durability gains.
	for _, s := range placement.AllSchemes {
		a := analyzer(t, s)
		prev := math.Inf(1)
		for _, m := range AllMethods {
			w, err := a.CatastrophicWindowHours(m)
			if err != nil {
				t.Fatalf("%v %v: %v", s, m, err)
			}
			if w > prev+1e-9 {
				t.Errorf("%v: window grew from %v at %v", s, prev, m)
			}
			prev = w
		}
	}
}

func TestMethodString(t *testing.T) {
	want := map[Method]string{RAll: "R_ALL", RFCO: "R_FCO", RHYB: "R_HYB", RMin: "R_MIN"}
	for m, w := range want {
		if m.String() != w {
			t.Errorf("%d String = %q, want %q", int(m), m.String(), w)
		}
	}
}

func TestAnalyzeProfileGeneral(t *testing.T) {
	// A partially-repaired Cp pool: only half the stripes still have 4
	// failures, the rest have 2 (the long-term durability scenario of
	// §4.2.3 F#2). R_HYB must now beat R_FCO even on */C.
	a := analyzer(t, placement.SchemeCC)
	stripes := a.Layout.LocalStripesPerPool()
	prof := StripeProfile{4: stripes / 2, 2: stripes / 2}
	fco, err := a.AnalyzeProfile(RFCO, 4, prof)
	if err != nil {
		t.Fatal(err)
	}
	hyb, err := a.AnalyzeProfile(RHYB, 4, prof)
	if err != nil {
		t.Fatal(err)
	}
	if hyb.CrossRackTrafficBytes >= fco.CrossRackTrafficBytes {
		t.Error("R_HYB must reduce traffic when some stripes are locally recoverable")
	}
	min, err := a.AnalyzeProfile(RMin, 4, prof)
	if err != nil {
		t.Fatal(err)
	}
	if min.CrossRackTrafficBytes >= hyb.CrossRackTrafficBytes {
		t.Error("R_MIN must reduce traffic below R_HYB")
	}
}

func TestAnalyzeProfileUnknownMethod(t *testing.T) {
	a := analyzer(t, placement.SchemeCC)
	if _, err := a.AnalyzeProfile(Method(99), 4, StripeProfile{}); !errors.Is(err, ErrUnknownMethod) {
		t.Errorf("AnalyzeProfile(Method(99)) error = %v, want ErrUnknownMethod", err)
	}
}

// TestNetworkChunks tabulates the rule that tells the methods apart, and
// checks on every row that it orders the network shares R_MIN ≤ R_HYB ≤
// R_FCO = R_ALL, the ordering behind Figure 8.
func TestNetworkChunks(t *testing.T) {
	for _, c := range []struct {
		lost, pl int
		want     [4]int // indexed by Method
	}{
		{0, 3, [4]int{0, 0, 0, 0}},
		{1, 3, [4]int{1, 1, 0, 0}},
		{3, 3, [4]int{3, 3, 0, 0}},
		{4, 3, [4]int{4, 4, 4, 1}},
		{6, 3, [4]int{6, 6, 6, 3}},
		{20, 3, [4]int{20, 20, 20, 17}},
		{1, 0, [4]int{1, 1, 1, 1}},
		{2, 1, [4]int{2, 2, 2, 1}},
		{5, 2, [4]int{5, 5, 5, 3}},
	} {
		var got [4]int
		for _, m := range AllMethods {
			got[m] = m.NetworkChunks(c.lost, c.pl)
		}
		if got != c.want {
			t.Errorf("lost %d pl %d: NetworkChunks by method = %v, want %v", c.lost, c.pl, got, c.want)
		}
		if !(got[RMin] <= got[RHYB] && got[RHYB] <= got[RFCO] && got[RFCO] <= c.lost) {
			t.Errorf("lost %d pl %d: shares %v break R_MIN ≤ R_HYB ≤ R_FCO ≤ lost", c.lost, c.pl, got)
		}
	}
	for _, m := range AllMethods {
		if m.Blind() != (m == RAll) {
			t.Errorf("%v.Blind() = %v", m, m.Blind())
		}
		if err := m.Validate(); err != nil {
			t.Errorf("%v.Validate() = %v", m, err)
		}
	}
	for _, m := range []Method{-1, 4, 99} {
		if err := m.Validate(); !errors.Is(err, ErrUnknownMethod) {
			t.Errorf("%v.Validate() = %v, want ErrUnknownMethod", m, err)
		}
	}
}
