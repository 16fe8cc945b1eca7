package runctl

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"mlec/internal/faultinject"
	"mlec/internal/obs"
)

// Pool is the managed worker pool every engine fans out through. It
// owns a context (workers poll it to stop draining new work) and
// contains worker panics as typed errors. A worker runs once: its
// function is a pure function of its stream id, so a fault it raises
// would recur on a re-run. The one recovery path is the checkpoint —
// re-running the same command resumes from the last saved level or
// round, and stream purity makes the resumed run byte-identical to one
// that never faulted.
//
// Workers must treat context cancellation as a graceful stop: finish
// the trial in flight, skip the rest, return nil. Wait therefore
// returns nil after a clean cancellation; the caller decides how to
// mark the partial result. A failure during drain is still recorded.
type Pool struct {
	ctx context.Context
	wg  sync.WaitGroup

	mu sync.Mutex
	// guarded by mu
	launched int64
	// guarded by mu
	first error
	// guarded by mu
	firstSeq int64

	// parentSpan, when set, parents each worker stream's wall-clock
	// span; set once before the first Go, read only at worker launch.
	parentSpan *obs.Span
}

// NewPool returns a pool whose workers observe ctx.
func NewPool(ctx context.Context) *Pool {
	if ctx == nil {
		ctx = context.Background()
	}
	return &Pool{ctx: ctx}
}

// SetParentSpan parents the wall-clock span each worker stream records
// under span (nil reverts to root spans). Call before Go — worker
// launches read it without synchronization.
func (p *Pool) SetParentSpan(span *obs.Span) { p.parentSpan = span }

// Go launches fn as a pool worker and runs it once. A panic in fn is
// recovered into a *PanicError carrying stream (use the worker's base
// RNG stream id; for per-trial precision wrap individual trials in
// Guard inside fn); a panic or a returned error is kept for Wait.
func (p *Pool) Go(stream int64, fn func(ctx context.Context) error) {
	p.mu.Lock()
	seq := p.launched
	p.launched++
	p.mu.Unlock()
	p.wg.Add(1)
	obs.Default.Counter("runctl_pool_workers_started_total").Inc()
	live.Add(1)
	span := p.parentSpan.Child("runctl.stream")
	go func() {
		defer func() {
			live.Add(-1)
			p.wg.Done()
		}()
		err := Guard(stream, func() error { return fn(p.ctx) })
		// The note is only built when a recorder is actually on —
		// disabled runs must not pay the format allocation.
		if span != nil {
			span.EndNote(fmt.Sprintf("stream %d", stream))
		}
		if err != nil {
			p.record(seq, err)
		}
	}()
}

// Wait blocks until every worker returned and reports the failure (a
// contained panic or a worker-returned error) of the earliest Go call
// among the failed workers, or nil. Which worker that is does not
// depend on scheduling, so the stream it names is a stable
// reproduction handle.
func (p *Pool) Wait() error {
	p.wg.Wait()
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.first
}

func (p *Pool) record(seq int64, err error) {
	p.mu.Lock()
	if p.first == nil || seq < p.firstSeq {
		p.first, p.firstSeq = err, seq
	}
	p.mu.Unlock()
}

// Each is the one fan-out loop of the Monte-Carlo engines: it runs units
// 0 … n−1 on min(runtime.NumCPU(), n) workers started through Go and
// returns once every worker has. Workers take units in ascending order
// and poll the pool's context before each take, so none takes a unit
// once it has seen the context done; a unit that has started always
// finishes. Unit u runs under Guard(stream(u)), after the loop has
// fired the fault-injection point with stream(u), so an injected panic
// is contained on the unit's stream too.
//
// newWorker is called once in each worker and returns the function
// that runs a unit, closing over the worker's scratch. A worker whose
// unit failed takes no more units, since its scratch may be torn.
// Because units are taken in ascending order, every unit below a
// failed one has been taken, so the failure Each reports — that of the
// lowest failing unit — does not depend on scheduling. Callers write
// results into per-unit slots and reduce them in unit order after Each
// returns.
func (p *Pool) Each(n int, stream func(unit int) int64, point string, newWorker func() func(unit int) error) error {
	var (
		mu   sync.Mutex
		next int
	)
	// take hands out the next unit while ctx is not done and one is left.
	take := func() (int, bool) {
		if p.ctx.Err() != nil {
			return 0, false
		}
		mu.Lock()
		defer mu.Unlock()
		next++
		return next - 1, next <= n
	}
	errs := make([]error, n)
	for w := 0; w < min(runtime.NumCPU(), n); w++ {
		// A worker is launched with its first unit, named by its stream.
		u, ok := take()
		if !ok {
			break
		}
		p.Go(stream(u), func(context.Context) error {
			run := newWorker()
			for ; ok; u, ok = take() {
				s := stream(u)
				if errs[u] = Guard(s, func() error {
					if err := faultinject.Fire(point, s); err != nil {
						return err
					}
					return run(u)
				}); errs[u] != nil {
					return nil
				}
			}
			return nil
		})
	}
	werr := p.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return werr
}
