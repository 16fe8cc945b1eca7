package runctl

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mlec/internal/faultinject"
)

// unitStream is the streams the Each tests hand the loop: distinct and
// not the unit index, so a failure naming the index would show.
func unitStream(u int) int64 { return 1000 + int64(u) }

// TestEachTakesUnitsInOrder cancels the context from inside one unit:
// that unit finishes, every worker ran its units in ascending order, and
// together they ran a prefix of the units that stops within two units
// per worker of the cancelling one.
func TestEachTakesUnitsInOrder(t *testing.T) {
	const n, cancelAt = 1000, 100
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var (
		mu       sync.Mutex
		order    [][]int // per worker, the units it started
		finished = make([]bool, n)
	)
	err := NewPool(ctx).Each(n, unitStream, "test.each", func() func(int) error {
		mu.Lock()
		w := len(order)
		order = append(order, nil)
		mu.Unlock()
		return func(u int) error {
			mu.Lock()
			order[w] = append(order[w], u)
			mu.Unlock()
			if u == cancelAt {
				cancel()
				time.Sleep(time.Millisecond) // the other workers reach their next take
			}
			mu.Lock()
			finished[u] = true
			mu.Unlock()
			return nil
		}
	})
	if err != nil {
		t.Fatalf("Each after a cancel = %v, want nil", err)
	}
	if workers := min(runtime.NumCPU(), n); len(order) > workers {
		t.Errorf("%d workers started, want at most %d", len(order), workers)
	}
	ran := 0
	for _, units := range order {
		ran += len(units)
		for i := 1; i < len(units); i++ {
			if units[i] <= units[i-1] {
				t.Errorf("a worker ran unit %d after unit %d", units[i], units[i-1])
			}
		}
	}
	if !finished[cancelAt] {
		t.Errorf("unit %d, running at the cancel, did not finish", cancelAt)
	}
	for u := range finished {
		if finished[u] != (u < ran) {
			t.Fatalf("units run are not a prefix: unit %d finished %v, %d units ran", u, finished[u], ran)
		}
	}
	// Past the cancelling unit, each other worker may finish the unit it
	// holds and one more whose take polled before the cancel.
	if limit := cancelAt + 2*min(runtime.NumCPU(), n); ran > limit {
		t.Errorf("%d units ran, want at most %d: units started after the cancel", ran, limit)
	}
	if Live() != 0 {
		t.Errorf("Live() = %d after Each, want 0", Live())
	}
}

// TestEachReportsLowestFailingUnit fails units 7 (late, by a panic), 30
// and 500 (at once, by errors): Each reports unit 7's panic on its
// stream, whichever failure lands first.
func TestEachReportsLowestFailingUnit(t *testing.T) {
	const n = 1000
	lateFail := errors.New("unit 30")
	err := NewPool(context.Background()).Each(n, unitStream, "test.each", func() func(int) error {
		return func(u int) error {
			switch u {
			case 7:
				time.Sleep(2 * time.Millisecond)
				panic("unit 7")
			case 30, 500:
				return lateFail
			}
			return nil
		}
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Stream != unitStream(7) || pe.Value != "unit 7" {
		t.Fatalf("Each = %v, want unit 7's panic on stream %d", err, unitStream(7))
	}
	if Live() != 0 {
		t.Errorf("Live() = %d after Each, want 0", Live())
	}
}

// TestEachFiresPointPerUnit arms a fault on every hit of the loop's
// point: no unit runs, and the failure is unit 0's, on its stream.
func TestEachFiresPointPerUnit(t *testing.T) {
	plan, err := faultinject.Parse("test.each:panic:p=1")
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(plan)
	defer faultinject.Disable()
	var ran atomic.Bool
	err = NewPool(context.Background()).Each(8, unitStream, "test.each", func() func(int) error {
		return func(int) error { ran.Store(true); return nil }
	})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Stream != unitStream(0) {
		t.Fatalf("Each = %v, want a panic on unit 0's stream %d", err, unitStream(0))
	}
	if ie, ok := pe.Value.(*faultinject.InjectedError); !ok || ie.Point != "test.each" || ie.Stream != unitStream(0) {
		t.Errorf("panic value %v, want the injected fault at test.each on unit 0's stream", pe.Value)
	}
	if ran.Load() {
		t.Error("a unit ran although its fault fired first")
	}
}
