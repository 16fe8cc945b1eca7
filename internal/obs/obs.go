// Package obs is the stdlib-only observability layer shared by every
// Monte-Carlo engine in this repository: an atomic metrics registry of
// two kinds (integer counters and gauges), a structured progress
// tracker (ETA, trials/sec, splitting-level occupancy, CI width), a
// simulated-time trace recorder emitting JSONL events, and wall-clock
// causal spans. Each quantity has one home: a rate is a counter over
// time (the progress task and any Prometheus scraper derive it), a
// level's wall time is its span, occupancy and CI width live on the
// progress task. The cmd/ binaries expose these through -obs (an HTTP
// endpoint serving Prometheus text, the progress tasks, and pprof),
// -progress (periodic stderr rendering), -trace-out and -span-out (the
// JSONL files cmd/mlectrace reads back) and -run-report.
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
//     simulated-time facts the engine already computed;
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
// values into package obs, and the ctxpoll analyzer exempts obs's own
// pump loops, because neither path can reach simulation state. See
// internal/lint/walltime.go and internal/lint/ctxpoll.go.
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
	//mlec:guardedby mu
	metrics map[string]any // *Counter | *Gauge
}

// Default is the process-wide registry every engine instruments. CLI
// endpoints and checkpoint snapshots read from it.
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
// needed. The name may carry a Prometheus label block:
// `faultinject_injected_total{kind="panic"}`.
func (r *Registry) Counter(name string) *Counter {
	return r.lookup(name, "counter", func() any { return &Counter{} }).(*Counter)
}

// Gauge returns the gauge registered under name.
func (r *Registry) Gauge(name string) *Gauge {
	return r.lookup(name, "gauge", func() any { return &Gauge{} }).(*Gauge)
}

// CounterValues snapshots every integer counter, keyed by full metric
// name. The map is built key-addressed, so its content is independent
// of map iteration order; runctl embeds it in checkpoint envelopes.
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

// MergeCounters folds a saved CounterValues snapshot back into the
// registry: each named counter is raised to at least its saved value
// (never lowered), so a run resumed from a checkpoint in a fresh
// process reports cumulative totals instead of restarting from zero.
// Names registered as a non-counter kind are skipped — checkpoint data
// is input, not an instrumentation contract.
func (r *Registry) MergeCounters(vals map[string]int64) {
	for name, v := range vals {
		if !validName(name) {
			continue
		}
		r.mu.Lock()
		m, ok := r.metrics[name]
		if !ok {
			m = &Counter{}
			r.metrics[name] = m
		}
		r.mu.Unlock()
		if c, ok := m.(*Counter); ok {
			c.mergeFloor(v)
		}
	}
}
