// Package sim provides a small deterministic discrete-event simulation
// engine: a virtual clock in hours and a priority queue of scheduled
// events. Ties are broken by scheduling order, making runs with the same
// seed fully reproducible. A warm engine schedules, fires and cancels
// without allocating: callbacks live in a slab of recycled slots.
package sim

import "fmt"

// Event is a handle to a scheduled callback: the slot it occupies and the
// slot's generation at scheduling time. A slot's generation moves on when
// its event fires, is cancelled or is dropped by Reset, so a handle to
// any of those is dead even after the slot is reused. The zero Event is
// no event.
type Event struct {
	slot uint32
	gen  uint32
}

// entry is one queued event. (time, seq) is a strict total order, so the
// firing order does not depend on how the heap is shaped.
type entry struct {
	time float64
	seq  uint64
	slot uint32
}

// slot holds a queued event's callback. pos is the event's heap index
// while it is queued and the next free slot (-1: none) while it is free.
type slot struct {
	fn  func()
	gen uint32
	pos int32
}

// Engine is a discrete-event simulator. The zero value is not usable; use
// New.
type Engine struct {
	now   float64
	seq   uint64
	queue []entry
	slots []slot
	free  int32 // head of the free-slot list, -1 when empty
}

// New returns an engine with the clock at 0.
func New() *Engine { return &Engine{free: -1} }

// Now returns the current simulation time in hours.
func (e *Engine) Now() float64 { return e.now }

// Schedule runs fn after delay hours and returns a cancellable handle.
// It panics on negative delays — an event in the past indicates a logic
// error in the caller.
func (e *Engine) Schedule(delay float64, fn func()) Event {
	if delay < 0 {
		//lint:allow nakedpanic scheduling into the past is a caller logic error; error returns would infect every event callback
		panic(fmt.Sprintf("sim: negative delay %g", delay))
	}
	if e.free < 0 {
		e.grow()
	}
	i := e.free
	s := &e.slots[i]
	e.free = s.pos
	s.fn = fn
	n := len(e.queue)
	e.queue = e.queue[:n+1]
	e.up(n, entry{time: e.now + delay, seq: e.seq, slot: uint32(i)})
	e.seq++
	return Event{slot: uint32(i), gen: s.gen}
}

// grow doubles the slab, and the queue's capacity with it: the queue
// never holds more entries than there are slots.
//
//mlec:cold amortized: the slab doubles, so a warm engine never comes here
func (e *Engine) grow() {
	n := len(e.slots)
	m := max(2*n, 16)
	slots := make([]slot, m)
	copy(slots, e.slots)
	for i := n; i < m; i++ {
		slots[i] = slot{gen: 1, pos: int32(i + 1)}
	}
	slots[m-1].pos = -1
	e.slots, e.free = slots, int32(n)
	queue := make([]entry, len(e.queue), m)
	copy(queue, e.queue)
	e.queue = queue
}

// release returns slot i to the free list and kills its handles.
func (e *Engine) release(i uint32) {
	s := &e.slots[i]
	s.fn = nil
	if s.gen++; s.gen == 0 {
		s.gen = 1 // 0 is the zero Event's
	}
	s.pos = e.free
	e.free = int32(i)
}

// Cancel removes a scheduled event. Cancelling an event that already
// fired, was cancelled or was dropped by Reset, and cancelling the zero
// Event, are no-ops.
func (e *Engine) Cancel(ev Event) {
	if ev.gen == 0 || e.slots[ev.slot].gen != ev.gen {
		return
	}
	e.remove(int(e.slots[ev.slot].pos))
	e.release(ev.slot)
}

// Reset returns the engine to time 0 with an empty queue, cancelling
// whatever was still scheduled. A driver that plays many short runs on
// one engine (a splitting worker: one trajectory after another) resets
// between them, so every run computes its event times from a clock at 0.
func (e *Engine) Reset() {
	for _, q := range e.queue {
		e.release(q.slot)
	}
	e.queue = e.queue[:0]
	e.now, e.seq = 0, 0
}

// Step fires the next event. It returns false when the queue is empty.
//
//mlec:hot event drain path
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	top := e.queue[0]
	e.remove(0)
	fn := e.slots[top.slot].fn
	e.release(top.slot) // before fn runs: fn may schedule into this slot
	e.now = top.time
	fn()
	return true
}

// RunUntil fires events until the clock would pass `until` or the queue
// drains; the clock is left at min(until, last event time ≥ now).
//
//mlec:hot event drain path
func (e *Engine) RunUntil(until float64) {
	// The length read in the loop condition lets the compiler's prove
	// pass drop the bounds check on the peek, which hotbce holds it to.
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
func (e *Engine) Pending() int { return len(e.queue) }

// NextTime returns the time of the earliest scheduled event, or false
// when the queue is empty. Drivers that poll a context between events
// (syssim, the trace replayer) use it to run the engine in bounded
// chunks without overshooting a horizon.
func (e *Engine) NextTime() (float64, bool) {
	if len(e.queue) == 0 {
		return 0, false
	}
	return e.queue[0].time, true
}

func less(a, b entry) bool {
	//lint:allow floateq exact tie-break on identical event times; ties fall through to seq order
	if a.time != b.time {
		return a.time < b.time
	}
	return a.seq < b.seq
}

// place puts x at heap index i and records the index in x's slot.
func (e *Engine) place(i int, x entry) {
	e.queue[i] = x
	e.slots[x.slot].pos = int32(i)
}

// remove deletes the entry at heap index i, moving the last entry into
// the hole and restoring the heap order around it.
func (e *Engine) remove(i int) {
	n := len(e.queue) - 1
	last := e.queue[n]
	e.queue = e.queue[:n]
	if i == n {
		return
	}
	if i > 0 && less(last, e.queue[(i-1)/2]) {
		e.up(i, last)
	} else {
		e.down(i, last)
	}
}

// up places x at hole i or above it, moving larger parents down.
func (e *Engine) up(i int, x entry) {
	for i > 0 {
		p := (i - 1) / 2
		if !less(x, e.queue[p]) {
			break
		}
		e.place(i, e.queue[p])
		i = p
	}
	e.place(i, x)
}

// down places x at hole i or below it, moving smaller children up.
func (e *Engine) down(i int, x entry) {
	n := len(e.queue)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && less(e.queue[r], e.queue[c]) {
			c = r
		}
		if !less(e.queue[c], x) {
			break
		}
		e.place(i, e.queue[c])
		i = c
	}
	e.place(i, x)
}
