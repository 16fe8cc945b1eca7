package sim

import "container/heap"

// refEngine is the engine as it was before events became values: one
// heap-allocated event per Schedule in a container/heap queue ordered by
// (time, seq). It is kept as the oracle for TestMatchesReferenceEngine.
type refEngine struct {
	now   float64
	seq   uint64
	queue refQueue
}

type refEvent struct {
	time     float64
	seq      uint64
	index    int // heap index; < 0 when popped or cancelled
	callback func()
}

func newRefEngine() *refEngine { return &refEngine{} }

func (e *refEngine) schedule(delay float64, fn func()) *refEvent {
	ev := &refEvent{time: e.now + delay, seq: e.seq, callback: fn}
	e.seq++
	heap.Push(&e.queue, ev)
	return ev
}

func (e *refEngine) cancel(ev *refEvent) {
	if ev == nil || ev.index < 0 {
		return
	}
	heap.Remove(&e.queue, ev.index)
	ev.index = -2
}

func (e *refEngine) reset() {
	for i, ev := range e.queue {
		ev.index = -2
		e.queue[i] = nil
	}
	e.queue = e.queue[:0]
	e.now, e.seq = 0, 0
}

func (e *refEngine) step() bool {
	if e.queue.Len() == 0 {
		return false
	}
	ev := heap.Pop(&e.queue).(*refEvent)
	ev.index = -1
	e.now = ev.time
	ev.callback()
	return true
}

func (e *refEngine) pending() int { return e.queue.Len() }

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *refQueue) Push(x any) {
	ev := x.(*refEvent)
	ev.index = len(*q)
	*q = append(*q, ev)
}
func (q *refQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}
