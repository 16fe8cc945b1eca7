// Package obs is the stdlib-only observability layer shared by every
// Monte-Carlo engine in this repository: an atomic metrics registry of
// two kinds (integer counters and gauges) keyed by bare Prometheus-style
// metric names, one series per name; a progress tracker (done/goal,
// rate, ETA and a note the engine writes); a simulated-time trace
// recorder emitting JSONL events; and wall-clock causal spans. Each
// quantity has one home: a rate is a counter over time (the progress
// task derives it), a level's wall time is its span, occupancy and CI
// width are the splitting task's progress note.
//
// Each signal leaves the process exactly one way, and only when a cmd/
// binary asks for it: counters through -run-report (the JSON document
// written at exit), progress through -progress (periodic stderr
// rendering), CPU and heap profiles through -profile-dir, simulated-time
// events through -trace-out and wall-clock spans through -span-out (the
// JSONL files cmd/mlectrace reads back). No exit is served over a
// network, so no binary links net/http.
//
// # Inertness
//
// The load-bearing invariant is that observability is provably inert:
// instrumentation may observe a run but never steer it. Concretely,
//
//   - metric updates are lock-free atomic adds that no engine ever reads
//     back into a decision;
//   - progress tasks are plain atomic tallies, rendered only by an
//     opt-in reporter goroutine writing to stderr;
//   - trace emission is gated on a single atomic bool and records only
//     simulation facts the engine already computed, from single-threaded
//     sites; run control (checkpoints, injected faults) emits none, so
//     a fixed seed writes the same trace with or without -checkpoint
//     and -chaos;
//   - nothing in this package touches an RNG stream, an event queue, or
//     any value that flows into statistics.
//
// Fixed-seed mlecdur/mlecburst outputs are therefore byte-identical
// with observability on or off — enforced by the end-to-end test in
// this package and by `make obs-smoke`.
//
// # Relationship to the mlecvet suite
//
// This package is the one sanctioned place where wall-clock readings
// may land (progress rates, ETAs, span durations): the
// walltime analyzer lets simulation packages pass wall-clock-derived
// values into package obs, because that path cannot reach simulation
// state. See internal/lint/walltime.go.
//
// obs sits below runctl in the import graph (runctl feeds its worker
// gauges and checkpoint counters from here), so it must not import any
// other mlec package.
package obs

import (
	"fmt"
	"sync"
)

// Registry holds named metrics. The zero value is not usable; use
// NewRegistry, or the package-level Default shared by the engines.
type Registry struct {
	mu sync.Mutex
	// guarded by mu
	metrics map[string]any // *Counter | *Gauge
}

// Default is the process-wide registry every engine instruments. The
// run report and the progress line read from it.
var Default = NewRegistry()

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]any)}
}

// lookup returns the metric registered under name, creating it with
// mk() under the registry lock when absent. A name registered with a
// different metric kind is a programmer error at instrumentation time.
func (r *Registry) lookup(name string, kind string, mk func() any) any {
	mustValidName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if metricKind(m) != kind {
			//lint:allow nakedpanic registering one metric name as two kinds is a programmer error at instrumentation time, like sim.Schedule's negative delay
			panic(fmt.Sprintf("obs: metric %q already registered as %s, requested %s",
				name, metricKind(m), kind))
		}
		return m
	}
	m := mk()
	r.metrics[name] = m
	return m
}

func metricKind(m any) string {
	switch m.(type) {
	case *Counter:
		return "counter"
	case *Gauge:
		return "gauge"
	}
	return fmt.Sprintf("%T", m)
}

// Counter returns the counter registered under name, creating it if
// needed. The name is a bare Prometheus metric name.
func (r *Registry) Counter(name string) *Counter {
	return r.lookup(name, "counter", func() any { return &Counter{} }).(*Counter)
}

// Gauge returns the gauge registered under name.
func (r *Registry) Gauge(name string) *Gauge {
	return r.lookup(name, "gauge", func() any { return &Gauge{} }).(*Gauge)
}

// CounterValues snapshots every integer counter, keyed by full metric
// name. The map is built key-addressed, so its content is independent
// of map iteration order; the run report records it.
func (r *Registry) CounterValues() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64)
	for name, m := range r.metrics {
		if c, ok := m.(*Counter); ok {
			out[name] = c.Value()
		}
	}
	return out
}
