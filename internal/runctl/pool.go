package runctl

import (
	"context"
	"fmt"
	"sync"

	"mlec/internal/obs"
)

// DefaultStreamAttempts is how many times a pool re-runs a failed or
// panicked worker stream before giving up on the campaign. Three
// attempts absorbs any single-shot fault per stream (including the
// once-per-stream faults internal/faultinject injects) while keeping a
// deterministically broken stream from looping forever.
const DefaultStreamAttempts = 3

// Pool is the managed worker pool every engine fans out through. It
// owns a context (workers poll it to stop draining new work), contains
// worker panics as typed errors, and self-heals: a worker whose
// function panics or returns an error is re-run — same function, same
// splitmix64 stream id — up to SetAttempts times before the failure is
// kept for Wait.
//
// Self-healing leans on the engines' determinism discipline: worker
// functions derive all randomness from their stream id and write
// results to stream-owned slots, so a re-run recomputes byte-identical
// results and a campaign that healed mid-flight is indistinguishable
// from one that never faulted. Workers must therefore be idempotent
// per attempt (pure writes keyed by stream/index; obs counters exempt,
// they are inert by construction).
//
// Workers must treat context cancellation as a graceful stop: finish
// the trial in flight, skip the rest, return nil. Wait therefore
// returns nil after a clean cancellation; the caller decides how to
// mark the partial result. A failure during drain is recorded without
// retry — cancellation means stop, not heal.
type Pool struct {
	ctx      context.Context
	wg       sync.WaitGroup
	attempts int

	mu sync.Mutex
	// guarded by mu
	first error

	// parentSpan, when set, parents each worker stream's wall-clock
	// span; set once before the first Go, read only at worker launch.
	parentSpan *obs.Span
}

// NewPool returns a pool whose workers observe ctx and re-run failed
// streams up to DefaultStreamAttempts times.
func NewPool(ctx context.Context) *Pool {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Pool{ctx: ctx, attempts: DefaultStreamAttempts}
}

// Context returns the pool's context, for callers that split work
// outside Go.
func (p *Pool) Context() context.Context { return p.ctx }

// SetAttempts overrides how many times a failed stream is re-run
// before the campaign fails (minimum 1 = no retries). Call before Go.
func (p *Pool) SetAttempts(n int) {
	if n < 1 {
		n = 1
	}
	p.attempts = n
}

// SetParentSpan parents the wall-clock span each worker stream records
// under span (nil reverts to root spans). Call before Go — worker
// launches read it without synchronization.
func (p *Pool) SetParentSpan(span *obs.Span) { p.parentSpan = span }

// Go launches fn as a pool worker. A panic in fn is recovered into a
// *PanicError carrying stream (use the worker's base RNG stream id; for
// per-trial precision wrap individual trials in Guard inside fn). A
// failed attempt — returned error or contained panic — is re-run from
// the same stream up to the pool's attempt budget; only the final
// failure is kept for Wait. Each retry ticks
// runctl_stream_retries_total and emits a stream_retry trace event.
func (p *Pool) Go(stream int64, fn func(ctx context.Context) error) {
	p.wg.Add(1)
	obs.Default.Counter("runctl_pool_workers_started_total").Inc()
	live.Add(1)
	span := p.parentSpan.Child("runctl.stream")
	go func() {
		defer func() {
			live.Add(-1)
			p.wg.Done()
		}()
		var last error
		attempts := 0
		defer func() {
			// The note is only built when a recorder is actually on —
			// disabled runs must not pay the format allocation.
			if span != nil {
				span.EndNote(fmt.Sprintf("stream %d attempts %d", stream, attempts))
			}
		}()
		for attempt := 1; ; attempt++ {
			attempts = attempt
			var ferr error
			gerr := Guard(stream, func() { ferr = fn(p.ctx) })
			Beat()
			if gerr == nil && ferr == nil {
				if attempt > 1 {
					obs.Default.Counter("runctl_stream_heals_total").Inc()
				}
				return
			}
			last = gerr
			if last == nil {
				last = ferr
			}
			// Cancellation means stop, not heal: a failure during drain
			// is recorded as-is. Likewise once the budget is spent.
			if attempt >= p.attempts || p.ctx.Err() != nil {
				break
			}
			obs.Default.Counter("runctl_stream_retries_total").Inc()
			obs.Trace.Emit(obs.TraceEvent{
				Kind: obs.EvStreamRetry,
				Note: fmt.Sprintf("stream %d attempt %d/%d failed: %v", stream, attempt, p.attempts, last),
			})
		}
		p.record(last)
	}()
}

// Wait blocks until every worker returned and reports the first error
// that survived its retry budget (a contained panic or a
// worker-returned error), or nil.
func (p *Pool) Wait() error {
	p.wg.Wait()
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.first
}

func (p *Pool) record(err error) {
	p.mu.Lock()
	if p.first == nil {
		p.first = err
	}
	p.mu.Unlock()
}
