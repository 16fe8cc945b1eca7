package throughput

import (
	"slices"
	"testing"

	"mlec/internal/placement"
)

// TestTableRejectsNonPositiveSizes: a non-positive shard size is an
// error. Timing 0 bytes used to return NaN with a nil error.
func TestTableRejectsNonPositiveSizes(t *testing.T) {
	for _, tc := range []struct {
		name       string
		shardBytes int
	}{
		{"zero shard", 0},
		{"negative shard", -1024},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, codes := range [][]Code{{RS(10, 2)}, {LRC(4, 2, 2)}, MLECCodes(placement.Params{KN: 4, PN: 1, KL: 4, PL: 1})} {
				if tab, err := Measure(tc.shardBytes, codes...); err == nil {
					t.Errorf("Measure(%d, %v) = %v, want an error", tc.shardBytes, codes, tab)
				}
			}
		})
	}
}

func TestMeasureRSPositive(t *testing.T) {
	tab, err := Measure(16<<10, RS(10, 2))
	if err != nil {
		t.Fatal(err)
	}
	v := tab[RS(10, 2)]
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
	tab, err := Measure(16<<10, RS(10, 8), RS(10, 1))
	if err != nil {
		t.Fatal(err)
	}
	if lo, hi := tab[RS(10, 8)], tab[RS(10, 1)]; hi < 2*lo {
		t.Errorf("p=1 (%.0f MB/s) not ≫ p=8 (%.0f MB/s)", hi/1e6, lo/1e6)
	}
}

func TestMeasureRSErrors(t *testing.T) {
	for name, codes := range map[string][]Code{
		"p=0":              {RS(10, 0)},
		"k=0":              {RS(0, 2)},
		"p=0 on 2 workers": {RSParallel(10, 0, 2)},
		"local p=0":        MLECCodes(placement.Params{KN: 4, PN: 1, KL: 4, PL: 0}),
	} {
		if _, err := Measure(1024, codes...); err == nil {
			t.Errorf("%s accepted", name)
		}
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
// levels' RS rates, and a shape shared by both levels is timed once.
func TestMeasureMLEC(t *testing.T) {
	all := []placement.Params{
		{KN: 4, PN: 1, KL: 4, PL: 1},
		{KN: 4, PN: 1, KL: 10, PL: 2},
	}
	tab, err := Measure(16<<10, MLECCodes(all...)...)
	if err != nil {
		t.Fatal(err)
	}
	for _, params := range all {
		tn, tl := tab[RS(params.KN, params.PN)], tab[RS(params.KL, params.PL)]
		if mlec, want := tab.MLEC(params), Compose(params, tn, tl); mlec != want || mlec <= 0 {
			t.Errorf("%v: MLEC %g, want Compose of the measured rates %g", params, mlec, want)
		}
	}
	if len(tab) != 2 {
		t.Errorf("timed %d codes, want 2: (4+1) and (10+2)", len(tab))
	}
}

// TestMeasureLRC: an LRC encodes all k+l+r shards a call
// (TestRoundsInterleave holds its work box to its k data shards).
func TestMeasureLRC(t *testing.T) {
	tab, err := Measure(16<<10, LRC(4, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if tab[LRC(4, 2, 2)] <= 0 {
		t.Fatal("zero LRC throughput")
	}
	e, err := newEncoder(LRC(4, 2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if e.width != 8 {
		t.Errorf("LRC(4,2,2) encodes %d shards, want 8", e.width)
	}
	if _, err := Measure(16<<10, LRC(5, 2, 2)); err == nil {
		t.Error("k%l != 0 accepted")
	}
}

// TestRoundsInterleave drives the timing loop with counting encoders:
// each code gets Rounds rounds of exactly ⌈WorkBytes ÷ (k·shardBytes)⌉
// calls on its own width of the shared shards, and round r of every code
// comes before round r+1 of any.
func TestRoundsInterleave(t *testing.T) {
	const shardBytes = 128 << 10
	// At WorkBytes = 2 MiB: k = 2 takes 8 calls of 256 KiB, k = 10 two of
	// 1.25 MiB, the LRC's k = 4 four of 512 KiB, and k = 50 one call.
	codes := []Code{RS(2, 1), RS(10, 4), LRC(4, 2, 2), RS(50, 10)}
	calls := []int{8, 2, 4, 1}
	widths := []int{3, 14, 8, 60}
	var got, want []int
	encoders := make([]encoder, len(codes))
	for i, c := range codes {
		encoders[i] = encoder{c, widths[i], func(shards [][]byte) error {
			if len(shards) != widths[i] {
				t.Errorf("%+v: encoded %d shards, want %d", c, len(shards), widths[i])
			}
			got = append(got, i)
			return nil
		}}
	}
	tab, err := timeRounds(encoders, newShards(60, shardBytes), shardBytes)
	if err != nil {
		t.Fatal(err)
	}
	for range Rounds {
		for i := range codes {
			for range calls[i] {
				want = append(want, i)
			}
		}
	}
	if !slices.Equal(got, want) {
		t.Errorf("call order (by code index)\n got %v\nwant %v", got, want)
	}
	if len(tab) != len(codes) {
		t.Errorf("%d rates for %d codes", len(tab), len(codes))
	}
}

// TestShardBytes: the shards are byte(i·31 + j), also where a shard is
// shorter than the 31-byte shift.
func TestShardBytes(t *testing.T) {
	for _, n := range []int{1, 30, 31, 32, 1000} {
		for i, shard := range newShards(5, n) {
			for j, b := range shard {
				if b != byte(i*31+j) {
					t.Fatalf("shard bytes %d: shard %d byte %d = %d, want %d", n, i, j, b, byte(i*31+j))
				}
			}
		}
	}
}

// TestFig11GridShape: a (k, p) grid measured through one table times each
// distinct cell once, so a cell listed twice has one rate.
func TestFig11GridShape(t *testing.T) {
	var codes []Code
	for pass := 0; pass < 2; pass++ {
		for _, p := range []int{1, 4} {
			for _, k := range []int{2, 10} {
				codes = append(codes, RS(k, p))
			}
		}
	}
	tab, err := Measure(8<<10, codes...)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range codes {
		if tab[c] <= 0 {
			t.Errorf("cell (%d,%d) zero throughput", c.K, c.P)
		}
	}
	if len(tab) != 4 {
		t.Errorf("%d codes timed, want 4", len(tab))
	}
}

func TestMeasureRSParallel(t *testing.T) {
	// Correct throughput at 1 and many workers; multi-worker must not
	// be catastrophically slower (perfect scaling isn't asserted — CI
	// machines vary — only sanity).
	tab, err := Measure(512<<10, RSParallel(10, 4, 1), RSParallel(10, 4, 4))
	if err != nil {
		t.Fatal(err)
	}
	one, many := tab[RSParallel(10, 4, 1)], tab[RSParallel(10, 4, 4)]
	t.Logf("(10+4) encode: 1 worker %.0f MB/s, 4 workers %.0f MB/s", one/1e6, many/1e6)
	if many < one/2 {
		t.Errorf("parallel encode collapsed: %g vs %g", many, one)
	}
}
