// Package sim provides a small deterministic discrete-event simulation
// engine: a virtual clock in hours and a priority queue of scheduled
// events. Ties are broken by scheduling order, making runs with the same
// seed fully reproducible.
package sim

import (
	"container/heap"
	"fmt"
)

// Event is a scheduled callback. The callback runs with the clock set to
// the event's time and may schedule further events or cancel itself via
// the returned handle.
type Event struct {
	time     float64
	seq      uint64
	index    int // heap index; -1 when popped/cancelled
	callback func()
}

// Cancelled reports whether the event was removed before firing.
func (e *Event) Cancelled() bool { return e.index == -2 }

// Engine is a discrete-event simulator. The zero value is not usable; use
// New.
type Engine struct {
	now   float64
	seq   uint64
	queue eventQueue
}

// New returns an engine with the clock at 0.
func New() *Engine { return &Engine{} }

// Now returns the current simulation time in hours.
func (e *Engine) Now() float64 { return e.now }

// Schedule runs fn after delay hours and returns a cancellable handle.
// It panics on negative delays — an event in the past indicates a logic
// error in the caller.
func (e *Engine) Schedule(delay float64, fn func()) *Event {
	if delay < 0 {
		//lint:allow nakedpanic scheduling into the past is a caller logic error; error returns would infect every event callback
		panic(fmt.Sprintf("sim: negative delay %g", delay))
	}
	//lint:allow hotalloc the engine's one allocation per event, reached from poolsim.Machine's hot transitions; it goes when events become typed values in a flat heap (ROADMAP item 1)
	ev := &Event{time: e.now + delay, seq: e.seq, callback: fn}
	e.seq++
	heap.Push(&e.queue, ev)
	return ev
}

// Cancel removes a scheduled event. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (e *Engine) Cancel(ev *Event) {
	if ev == nil || ev.index < 0 {
		return
	}
	heap.Remove(&e.queue, ev.index)
	ev.index = -2
}

// Reset returns the engine to time 0 with an empty queue, cancelling
// whatever was still scheduled. A driver that plays many short runs on
// one engine (a splitting worker: one trajectory after another) resets
// between them, so every run computes its event times from a clock at 0.
func (e *Engine) Reset() {
	for i, ev := range e.queue {
		ev.index = -2
		e.queue[i] = nil
	}
	e.queue = e.queue[:0]
	e.now, e.seq = 0, 0
}

// Step fires the next event. It returns false when the queue is empty.
//
//mlec:hot event drain path; allocation belongs in Schedule, not here
func (e *Engine) Step() bool {
	if e.queue.Len() == 0 {
		return false
	}
	ev := heap.Pop(&e.queue).(*Event)
	ev.index = -1
	e.now = ev.time
	ev.callback()
	return true
}

// RunUntil fires events until the clock would pass `until` or the queue
// drains; the clock is left at min(until, last event time ≥ now).
//
//mlec:hot event drain path
func (e *Engine) RunUntil(until float64) {
	// len(e.queue) rather than e.queue.Len(): the direct length read is
	// what lets the compiler's prove pass eliminate the bounds check on
	// the peek below, which hotbce holds it to (Step mutates the queue,
	// so the fact is re-established every iteration).
	for len(e.queue) > 0 {
		next := e.queue[0].time
		if next > until {
			break
		}
		e.Step()
	}
	if e.now < until {
		e.now = until
	}
}

// Pending returns the number of scheduled events.
func (e *Engine) Pending() int { return e.queue.Len() }

// NextTime returns the time of the earliest scheduled event, or false
// when the queue is empty. Drivers that poll a context between events
// (syssim, the trace replayer) use it to run the engine in bounded
// chunks without overshooting a horizon.
func (e *Engine) NextTime() (float64, bool) {
	if e.queue.Len() == 0 {
		return 0, false
	}
	return e.queue[0].time, true
}

// eventQueue implements heap.Interface ordered by (time, seq).
type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	//lint:allow floateq exact tie-break on identical event times; ties fall through to seq order
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *eventQueue) Push(x any) {
	ev := x.(*Event)
	ev.index = len(*q)
	*q = append(*q, ev)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}
