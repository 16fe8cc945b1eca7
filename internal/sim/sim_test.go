package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	e := New()
	var fired []float64
	delays := []float64{5, 1, 3, 2, 4}
	for _, d := range delays {
		d := d
		e.Schedule(d, func() { fired = append(fired, d) })
	}
	for e.Step() {
	}
	if !sort.Float64sAreSorted(fired) {
		t.Fatalf("events fired out of order: %v", fired)
	}
	if len(fired) != len(delays) {
		t.Fatalf("fired %d events, want %d", len(fired), len(delays))
	}
	if e.Now() != 5 {
		t.Fatalf("clock at %g, want 5", e.Now())
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	e := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(1, func() { order = append(order, i) })
	}
	for e.Step() {
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("tie order %v", order)
		}
	}
}

func TestCancel(t *testing.T) {
	e := New()
	fired := false
	ev := e.Schedule(1, func() { fired = true })
	e.Cancel(ev)
	for e.Step() {
	}
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !ev.Cancelled() {
		t.Fatal("Cancelled() false after cancel")
	}
	// Double cancel and nil cancel are no-ops.
	e.Cancel(ev)
	e.Cancel(nil)
}

func TestCancelFromCallback(t *testing.T) {
	e := New()
	fired := false
	var later *Event
	e.Schedule(1, func() { e.Cancel(later) })
	later = e.Schedule(2, func() { fired = true })
	for e.Step() {
	}
	if fired {
		t.Fatal("event cancelled from a callback still fired")
	}
}

func TestScheduleFromCallback(t *testing.T) {
	e := New()
	var times []float64
	var tick func()
	n := 0
	tick = func() {
		times = append(times, e.Now())
		if n++; n < 5 {
			e.Schedule(2, tick)
		}
	}
	e.Schedule(1, tick)
	for e.Step() {
	}
	want := []float64{1, 3, 5, 7, 9}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times %v, want %v", times, want)
		}
	}
}

func TestRunUntil(t *testing.T) {
	e := New()
	count := 0
	for i := 1; i <= 10; i++ {
		e.Schedule(float64(i), func() { count++ })
	}
	e.RunUntil(5.5)
	if count != 5 {
		t.Fatalf("fired %d events by t=5.5, want 5", count)
	}
	if e.Now() != 5.5 {
		t.Fatalf("clock %g, want 5.5", e.Now())
	}
	if e.Pending() != 5 {
		t.Fatalf("pending %d, want 5", e.Pending())
	}
	e.RunUntil(100)
	if count != 10 || e.Now() != 100 {
		t.Fatalf("after drain: count=%d now=%g", count, e.Now())
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	New().Schedule(-1, func() {})
}

func TestHeapStress(t *testing.T) {
	e := New()
	rng := rand.New(rand.NewSource(5))
	var events []*Event
	for i := 0; i < 2000; i++ {
		events = append(events, e.Schedule(rng.Float64()*100, func() {}))
	}
	// Cancel a random half.
	for _, i := range rng.Perm(2000)[:1000] {
		e.Cancel(events[i])
	}
	prev := -1.0
	fired := 0
	for e.Pending() > 0 {
		e.Step()
		if e.Now() < prev {
			t.Fatal("clock went backwards")
		}
		prev = e.Now()
		fired++
	}
	if fired != 1000 {
		t.Fatalf("fired %d, want 1000", fired)
	}
}

// TestEngineOrderQuick: for any random schedule of events, firing order
// must be non-decreasing in time and stable for ties.
func TestEngineOrderQuick(t *testing.T) {
	if err := quick.Check(func(delays []uint16) bool {
		if len(delays) == 0 {
			return true
		}
		e := New()
		type rec struct {
			time float64
			seq  int
		}
		var fired []rec
		for i, d := range delays {
			tm := float64(d % 1000)
			i := i
			e.Schedule(tm, func() { fired = append(fired, rec{tm, i}) })
		}
		for e.Step() {
		}
		if len(fired) != len(delays) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i].time < fired[i-1].time {
				return false
			}
			if fired[i].time == fired[i-1].time && fired[i].seq < fired[i-1].seq {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestReset: a reset engine is indistinguishable from a new one — clock
// at 0, nothing pending, tie-breaking restarted — and handles to events
// it dropped are dead.
func TestReset(t *testing.T) {
	e := New()
	fired := 0
	e.Schedule(1, func() { fired++ })
	stale := e.Schedule(5, func() { t.Error("event survived Reset") })
	e.RunUntil(2)
	e.Reset()
	if e.Now() != 0 || e.Pending() != 0 || !stale.Cancelled() {
		t.Fatalf("after Reset: now %g, pending %d, dropped event cancelled %v", e.Now(), e.Pending(), stale.Cancelled())
	}
	e.Cancel(stale) // must not disturb the new queue
	var order []int
	e.Schedule(3, func() { order = append(order, 1) })
	e.Schedule(3, func() { order = append(order, 2) })
	e.RunUntil(10)
	if fired != 1 || len(order) != 2 || order[0] != 1 || order[1] != 2 {
		t.Errorf("after Reset: fired %d, same-time order %v", fired, order)
	}
}
