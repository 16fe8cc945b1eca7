package throughput

import (
	"testing"
	"time"

	"mlec/internal/placement"
)

const testDur = 8 * time.Millisecond

func TestMeasureRSPositive(t *testing.T) {
	v, err := MeasureRS(10, 2, 16<<10, testDur)
	if err != nil {
		t.Fatal(err)
	}
	if v <= 0 {
		t.Fatalf("throughput %g", v)
	}
	// Even the Go table loops (no AVX2) should exceed this floor on any
	// machine, even under the race detector's ~10× instrumentation.
	if v < 5e6 {
		t.Errorf("suspiciously slow: %g B/s", v)
	}
}

func TestMoreParityLowerThroughput(t *testing.T) {
	// Figure 11's vertical trend: throughput falls as p grows. Parity
	// work per data byte is proportional to p, so p=8 must be several
	// times slower than p=1 — well beyond measurement noise.
	lo, err := MeasureRS(10, 8, 16<<10, testDur)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := MeasureRS(10, 1, 16<<10, testDur)
	if err != nil {
		t.Fatal(err)
	}
	if hi < 2*lo {
		t.Errorf("p=1 (%.0f MB/s) not ≫ p=8 (%.0f MB/s)", hi/1e6, lo/1e6)
	}
}

func TestMeasureRSErrors(t *testing.T) {
	if _, err := MeasureRS(10, 0, 1024, testDur); err == nil {
		t.Error("p=0 accepted")
	}
	if _, err := MeasureRS(0, 2, 1024, testDur); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestCompose(t *testing.T) {
	if got := Compose(100, 100); got != 50 {
		t.Errorf("Compose(100,100) = %g", got)
	}
	if got := Compose(0, 100); got != 0 {
		t.Errorf("Compose(0,100) = %g", got)
	}
	// Composition is bounded by the slower stage.
	if got := Compose(10, 1000); got >= 10 {
		t.Errorf("Compose not below min: %g", got)
	}
}

func TestMeasureMLEC(t *testing.T) {
	params := placement.Params{KN: 4, PN: 1, KL: 4, PL: 1}
	mlec, err := MeasureMLEC(params, 16<<10, testDur)
	if err != nil {
		t.Fatal(err)
	}
	single, err := MeasureRS(4, 1, 16<<10, testDur)
	if err != nil {
		t.Fatal(err)
	}
	if mlec <= 0 || mlec >= single {
		t.Errorf("MLEC throughput %g must be positive and below one stage's %g", mlec, single)
	}
}

func TestMeasureLRC(t *testing.T) {
	v, err := MeasureLRC(4, 2, 2, 16<<10, testDur)
	if err != nil {
		t.Fatal(err)
	}
	if v <= 0 {
		t.Fatal("zero LRC throughput")
	}
	// LRC(4,2,2): 2 XOR locals + 2 RS globals; must be slower than a
	// plain (4+1) RS but faster than... at least positive and slower
	// than the single-parity code.
	rsv, err := MeasureRS(4, 1, 16<<10, testDur)
	if err != nil {
		t.Fatal(err)
	}
	if v >= rsv {
		t.Errorf("LRC (%g) should not beat (4+1) RS (%g)", v, rsv)
	}
	if _, err := MeasureLRC(5, 2, 2, 1024, testDur); err == nil {
		t.Error("k%l != 0 accepted")
	}
}

func TestFig11GridShape(t *testing.T) {
	cells, err := Fig11Grid([]int{2, 10}, []int{1, 4}, 8<<10, testDur)
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("%d cells", len(cells))
	}
	for _, c := range cells {
		if c.BytesPerSec <= 0 {
			t.Errorf("cell (%d,%d) zero throughput", c.K, c.P)
		}
	}
}

func TestMeasureRSParallel(t *testing.T) {
	// Correct throughput at 1 and many workers; multi-worker must not
	// be catastrophically slower (perfect scaling isn't asserted — CI
	// machines vary — only sanity).
	one, err := MeasureRSParallel(10, 4, 512<<10, 1, 30*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	many, err := MeasureRSParallel(10, 4, 512<<10, 4, 30*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("(10+4) encode: 1 worker %.0f MB/s, 4 workers %.0f MB/s", one/1e6, many/1e6)
	if many < one/2 {
		t.Errorf("parallel encode collapsed: %g vs %g", many, one)
	}
	if _, err := MeasureRSParallel(10, 0, 1024, 2, time.Millisecond); err == nil {
		t.Error("p=0 accepted")
	}
}
