package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterAddInc(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("Value = %d, want 42", got)
	}
}

func TestCounterMergeFloor(t *testing.T) {
	var c Counter
	c.Add(7)
	c.mergeFloor(100)
	if got := c.Value(); got != 100 {
		t.Fatalf("after raise: Value = %d, want 100", got)
	}
	c.mergeFloor(5)
	if got := c.Value(); got != 100 {
		t.Fatalf("merge must never lower: Value = %d, want 100", got)
	}
	c.mergeFloor(100)
	if got := c.Value(); got != 100 {
		t.Fatalf("merge is idempotent: Value = %d, want 100", got)
	}
}

func TestGaugeAddSet(t *testing.T) {
	var g Gauge
	g.Add(3)
	g.Add(-5)
	if got := g.Value(); got != -2 {
		t.Fatalf("Gauge = %d, want -2", got)
	}
	g.Set(9)
	if got := g.Value(); got != 9 {
		t.Fatalf("Gauge after Set = %d, want 9", got)
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("kind_clash_total")
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("registering one name as two kinds did not panic")
		}
		if s, ok := v.(string); !ok || !strings.Contains(s, "kind_clash_total") {
			t.Fatalf("panic %v does not name the clashing metric", v)
		}
	}()
	r.Gauge("kind_clash_total")
}

func TestRegistryMalformedNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("malformed metric name did not panic")
		}
	}()
	r.Counter(`bad name{x=unquoted}`)
}

func TestRegistryMergeCounters(t *testing.T) {
	r := NewRegistry()
	r.Counter("resumed_total").Add(7)
	r.MergeCounters(map[string]int64{
		"resumed_total": 100, // raises the live counter
		"fresh_total":   12,  // materializes a counter that didn't exist yet
		"bad name":      5,   // invalid name: skipped
	})
	if got := r.Counter("resumed_total").Value(); got != 100 {
		t.Fatalf("resumed_total = %d, want 100", got)
	}
	if got := r.Counter("fresh_total").Value(); got != 12 {
		t.Fatalf("fresh_total = %d, want 12", got)
	}
	vals := r.CounterValues()
	if _, ok := vals["bad name"]; ok {
		t.Fatal("invalid counter name leaked into the registry")
	}
}

func TestRegistryMergeSkipsWrongKind(t *testing.T) {
	r := NewRegistry()
	r.Gauge("depth")
	r.MergeCounters(map[string]int64{"depth": 55})
	if got := r.Gauge("depth").Value(); got != 0 {
		t.Fatalf("merge overwrote a non-counter metric: gauge = %d", got)
	}
}

// TestRegistryConcurrent hammers one registry from many goroutines —
// creation races, hot-path updates, and exposition all at once. Run
// under -race this is the package's data-race certificate.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const iters = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				r.Counter("conc_total").Inc()
				r.Counter(`conc_labeled_total{worker="a"}`).Inc()
				r.Gauge("conc_gauge").Set(int64(i))
				if i%500 == 0 {
					_ = r.WritePrometheus(discard{})
					r.MergeCounters(map[string]int64{"conc_total": int64(i)})
				}
			}
		}()
	}
	wg.Wait()
	if got, want := r.Counter("conc_total").Value(), int64(workers*iters); got != want {
		t.Fatalf("conc_total = %d, want %d", got, want)
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }
