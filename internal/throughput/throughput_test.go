package throughput

import (
	"testing"
	"time"

	"mlec/internal/placement"
)

const testDur = 8 * time.Millisecond

// TestTableRejectsNonPositiveSizes: a non-positive budget or shard size
// is an error. Timing 0 bytes for 0 s used to return NaN with a nil error.
func TestTableRejectsNonPositiveSizes(t *testing.T) {
	for _, tc := range []struct {
		name       string
		shardBytes int
		budget     time.Duration
	}{
		{"zero budget", 1024, 0},
		{"negative budget", 1024, -5},
		{"zero shard", 0, testDur},
		{"negative shard", -1024, testDur},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tab := NewTable(tc.shardBytes, tc.budget)
			if v, err := tab.RS(10, 2); err == nil {
				t.Errorf("RS(10, 2) = %g, want an error", v)
			}
			if v, err := tab.LRC(4, 2, 2); err == nil {
				t.Errorf("LRC(4, 2, 2) = %g, want an error", v)
			}
			if v, err := tab.MLEC(placement.Params{KN: 4, PN: 1, KL: 4, PL: 1}); err == nil {
				t.Errorf("MLEC = %g, want an error", v)
			}
		})
	}
}

func TestMeasureRSPositive(t *testing.T) {
	v, err := NewTable(16<<10, testDur).RS(10, 2)
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
	tab := NewTable(16<<10, testDur)
	lo, err := tab.RS(10, 8)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := tab.RS(10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if hi < 2*lo {
		t.Errorf("p=1 (%.0f MB/s) not ≫ p=8 (%.0f MB/s)", hi/1e6, lo/1e6)
	}
}

func TestMeasureRSErrors(t *testing.T) {
	tab := NewTable(1024, testDur)
	if _, err := tab.RS(10, 0); err == nil {
		t.Error("p=0 accepted")
	}
	if _, err := tab.RS(0, 2); err == nil {
		t.Error("k=0 accepted")
	}
	if _, err := tab.RSParallel(10, 0, 2); err == nil {
		t.Error("p=0 accepted on 2 workers")
	}
	if _, err := tab.MLEC(placement.Params{KN: 4, PN: 1, KL: 4, PL: 0}); err == nil {
		t.Error("local p=0 accepted")
	}
}

// TestCompose checks the MLEC composition exactly on fixed stage rates:
// the local level ingests (kn+pn)/kn bytes per user byte, and one core
// adds the two levels' per-byte times.
func TestCompose(t *testing.T) {
	params := placement.Params{KN: 4, PN: 1, KL: 17, PL: 3}
	for _, tc := range []struct {
		tn, tl, want float64
	}{
		// The local rate 10 per local byte is 8 per user byte:
		// 1/(1/8 + 1/8) = 4, where the sum of the two rates' per-byte
		// times without the factor would give 40/9.
		{8, 10, 4},
		{2, 5, 4.0 / 3},
		{0, 10, 0},
		{8, 0, 0},
	} {
		if got := Compose(params, tc.tn, tc.tl); got != tc.want {
			t.Errorf("Compose(%v, %g, %g) = %g, want %g", params, tc.tn, tc.tl, got, tc.want)
		}
	}
	// With pn = 0 the local level sees only user bytes.
	if got := Compose(placement.Params{KN: 4, PN: 0, KL: 4, PL: 1}, 8, 8); got != 4 {
		t.Errorf("pn=0: Compose = %g, want 4", got)
	}
}

// TestMeasureMLEC: the table's MLEC rate is the composition of the two
// levels' stored RS rates, and a shape shared by both levels is timed once.
func TestMeasureMLEC(t *testing.T) {
	tab := NewTable(16<<10, time.Millisecond)
	for _, params := range []placement.Params{
		{KN: 4, PN: 1, KL: 4, PL: 1},
		{KN: 4, PN: 1, KL: 10, PL: 2},
	} {
		mlec, err := tab.MLEC(params)
		if err != nil {
			t.Fatal(err)
		}
		// Both shapes were stored by MLEC; a stored lookup cannot fail.
		tn, _ := tab.RS(params.KN, params.PN)
		tl, _ := tab.RS(params.KL, params.PL)
		if want := Compose(params, tn, tl); mlec != want || mlec <= 0 {
			t.Errorf("%v: MLEC %g, want Compose of the stored rates %g", params, mlec, want)
		}
	}
	if len(tab.rates) != 2 {
		t.Errorf("timed %d codes, want 2: (4+1) and (10+2)", len(tab.rates))
	}
}

func TestMeasureLRC(t *testing.T) {
	tab := NewTable(16<<10, testDur)
	v, err := tab.LRC(4, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if v <= 0 {
		t.Fatal("zero LRC throughput")
	}
	// LRC(4,2,2): 2 XOR locals + 2 RS globals; must be slower than a
	// plain (4+1) RS but faster than... at least positive and slower
	// than the single-parity code.
	rsv, err := tab.RS(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v >= rsv {
		t.Errorf("LRC (%g) should not beat (4+1) RS (%g)", v, rsv)
	}
	if _, err := tab.LRC(5, 2, 2); err == nil {
		t.Error("k%l != 0 accepted")
	}
}

// TestFig11GridShape: a (k, p) grid through one table times each cell
// once, and looking a cell up again returns the same rate, bit for bit.
func TestFig11GridShape(t *testing.T) {
	tab := NewTable(8<<10, testDur)
	first := map[[2]int]float64{}
	for pass := 0; pass < 2; pass++ {
		for _, p := range []int{1, 4} {
			for _, k := range []int{2, 10} {
				v, err := tab.RS(k, p)
				if err != nil {
					t.Fatal(err)
				}
				if v <= 0 {
					t.Errorf("cell (%d,%d) zero throughput", k, p)
				}
				if pass == 0 {
					first[[2]int{k, p}] = v
				} else if v != first[[2]int{k, p}] {
					t.Errorf("cell (%d,%d) re-timed: %g then %g", k, p, first[[2]int{k, p}], v)
				}
			}
		}
	}
	if len(tab.rates) != 4 || len(tab.shards) != 14 {
		t.Errorf("%d codes timed over %d shards, want 4 over 14", len(tab.rates), len(tab.shards))
	}
}

func TestMeasureRSParallel(t *testing.T) {
	// Correct throughput at 1 and many workers; multi-worker must not
	// be catastrophically slower (perfect scaling isn't asserted — CI
	// machines vary — only sanity).
	tab := NewTable(512<<10, 30*time.Millisecond)
	one, err := tab.RSParallel(10, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	many, err := tab.RSParallel(10, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("(10+4) encode: 1 worker %.0f MB/s, 4 workers %.0f MB/s", one/1e6, many/1e6)
	if many < one/2 {
		t.Errorf("parallel encode collapsed: %g vs %g", many, one)
	}
}
