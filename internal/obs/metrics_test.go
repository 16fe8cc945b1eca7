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

// TestRegistryConcurrent hammers one registry from many goroutines —
// creation races, hot-path updates, and the run report's snapshot all
// at once. Run
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
				r.Counter("conc_other_total").Inc()
				r.Gauge("conc_gauge").Set(int64(i))
				if i%500 == 0 {
					_ = r.CounterValues()
				}
			}
		}()
	}
	wg.Wait()
	if got, want := r.Counter("conc_total").Value(), int64(workers*iters); got != want {
		t.Fatalf("conc_total = %d, want %d", got, want)
	}
}
