package obs

import "sync/atomic"

// Counter is a monotonically increasing integer metric. The zero value
// is ready to use. All methods are safe for concurrent use and
// lock-free; engines on hot paths pay one atomic add per update.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by delta (callers pass non-negative
// deltas; monotonicity is a convention, not enforced on the hot path).
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an integer metric that can go up and down (live pool
// workers). The zero value is ready.
type Gauge struct {
	v atomic.Int64
}

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }
