package failure

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"mlec/internal/mathx"
)

func TestExponentialAFRRoundTrip(t *testing.T) {
	for _, afr := range []mathx.AFR{0.005, 0.01, 0.02, 0.1} {
		d, err := NewExponentialAFR(afr)
		if err != nil {
			t.Fatal(err)
		}
		if got := d.AFR(); math.Abs(float64(got-afr)) > 1e-12 {
			t.Errorf("AFR round trip %g → %g", afr, got)
		}
	}
	for _, bad := range []mathx.AFR{0, 1, -0.1, 2} {
		if _, err := NewExponentialAFR(bad); err == nil {
			t.Errorf("AFR %g accepted", bad)
		}
	}
}

func TestExponentialSampleMean(t *testing.T) {
	d := MustExponentialAFR(0.01)
	rng := rand.New(rand.NewSource(1))
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += d.Sample(rng)
	}
	mean := sum / n
	if rel := math.Abs(mean-d.MeanHours()) / d.MeanHours(); rel > 0.02 {
		t.Errorf("sample mean %g vs analytic %g (rel %g)", mean, d.MeanHours(), rel)
	}
	// 1% AFR → mean TTF ≈ 100 years.
	if y := d.MeanHours() / mathx.HoursPerYear; y < 99 || y > 101 {
		t.Errorf("mean TTF %g years, want ≈ 99.5", y)
	}
}

func TestWeibullSampleMean(t *testing.T) {
	w := Weibull{Shape: 1.5, ScaleHours: 1000}
	rng := rand.New(rand.NewSource(2))
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := w.Sample(rng)
		if v <= 0 {
			t.Fatal("non-positive sample")
		}
		sum += v
	}
	mean := sum / n
	if rel := math.Abs(mean-w.MeanHours()) / w.MeanHours(); rel > 0.02 {
		t.Errorf("sample mean %g vs analytic %g", mean, w.MeanHours())
	}
}

func TestWeibullShape1IsExponential(t *testing.T) {
	w := Weibull{Shape: 1, ScaleHours: 500}
	if math.Abs(w.MeanHours()-500) > 1e-9 {
		t.Errorf("shape-1 Weibull mean %g, want 500", w.MeanHours())
	}
}

func TestGenerateTrace(t *testing.T) {
	d := MustExponentialAFR(0.5) // high AFR for a dense trace
	tr := GenerateTrace(100, 2, d, 42)
	if len(tr.Events) == 0 {
		t.Fatal("empty trace")
	}
	if !tr.Sorted() {
		t.Fatal("trace not sorted")
	}
	for _, e := range tr.Events {
		if e.Disk < 0 || e.Disk >= 100 {
			t.Fatalf("disk %d out of range", e.Disk)
		}
		if e.TimeHours < 0 || e.TimeHours >= 2*mathx.HoursPerYear {
			t.Fatalf("time %g out of range", e.TimeHours)
		}
	}
	// Expected count ≈ disks·years·rate·8760 ≈ 100·2·0.693 ≈ 139.
	if n := len(tr.Events); n < 80 || n > 220 {
		t.Errorf("trace has %d events, expected ≈139", n)
	}
	// Determinism.
	tr2 := GenerateTrace(100, 2, d, 42)
	if len(tr2.Events) != len(tr.Events) {
		t.Fatal("same seed, different trace")
	}
}

func TestTraceSerializationRoundTrip(t *testing.T) {
	d := MustExponentialAFR(0.3)
	tr := GenerateTrace(50, 1, d, 7)
	var buf bytes.Buffer
	if _, err := tr.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ParseTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Events) != len(tr.Events) {
		t.Fatalf("round trip %d events, want %d", len(back.Events), len(tr.Events))
	}
	for i := range back.Events {
		if back.Events[i].Disk != tr.Events[i].Disk {
			t.Fatalf("event %d disk mismatch", i)
		}
		if math.Abs(back.Events[i].TimeHours-tr.Events[i].TimeHours) > 1e-5 {
			t.Fatalf("event %d time mismatch", i)
		}
	}
}

func TestParseTraceComments(t *testing.T) {
	in := "# header\n\n3,10.5\n1,2.0\n"
	tr, err := ParseTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) != 2 {
		t.Fatalf("parsed %d events", len(tr.Events))
	}
	// Must be sorted even though input wasn't.
	if tr.Events[0].Disk != 1 || tr.Events[1].Disk != 3 {
		t.Fatalf("events not sorted: %+v", tr.Events)
	}
}

func TestParseTraceErrors(t *testing.T) {
	for _, in := range []string{"1\n", "a,2\n", "1,b\n", "-1,2\n", "1,-2\n"} {
		if _, err := ParseTrace(strings.NewReader(in)); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
}

func TestParseTraceRejectsNonFinite(t *testing.T) {
	tests := []struct {
		name string
		in   string
		line int // expected line number in the error
	}{
		{"nan time", "1,NaN\n", 1},
		{"nan time lowercase", "1,nan\n", 1},
		{"positive inf time", "1,+Inf\n", 1},
		{"negative inf time", "1,-Inf\n", 1},
		{"bare inf time", "1,Inf\n", 1},
		{"overflowing time", "1,1e999\n", 1},
		{"nan after valid lines", "# header\n0,1.0\n2,NaN\n", 3},
		{"inf after blank line", "\n0,1.0\n\n2,Inf\n", 4},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseTrace(strings.NewReader(tc.in))
			if err == nil {
				t.Fatalf("input %q accepted", tc.in)
			}
			want := fmt.Sprintf("line %d", tc.line)
			if !strings.Contains(err.Error(), want) {
				t.Errorf("error %q does not name %s", err, want)
			}
		})
	}
}
