// Package faultinject is a deterministic, seeded fault-injection
// harness for the run-control layer and the Monte-Carlo engines.
//
// The paper's premise is that at data-center scale failures are the
// steady state, not the exception (Rashmi et al. measure tens of
// unavailability events per day in a single Facebook warehouse). A
// campaign runner that models such systems should itself survive
// faults, and the only way to trust that it does is to inject them on
// purpose, deterministically, in CI. This package provides the
// injection half of that loop; internal/runctl provides the recovery
// half (panic containment, checkpoint resume and generations). Every
// fault ends the run it lands in; recovery is
// re-running the same command, which resumes from the last committed
// checkpoint.
//
// # Injection points
//
// Code under test names its fault sites ("poolsim.worker",
// "runctl.checkpoint.write") and calls Fire (or wraps a writer in
// Writer) at each one. A site costs one atomic pointer load when no
// plan is armed — the same inertness discipline obs.Trace.Emit
// follows — so sites stay in production code unconditionally, and the
// CLI inertness byte-comparison test proves a chaos-less run is
// byte-identical with the sites compiled in.
//
// # Determinism
//
// A probability rule is stateless: it fires on a hit iff a pure
// function of (plan seed, point name, stream id) via splitmix64 falls
// below p — never of wall clock, scheduling, or map order — so a
// fixed-seed chaos run injects the same faults at the same streams on
// every host. An nth trigger consults a global per-point hit counter.
// At single-threaded sites such as checkpoint saves that names one
// fixed hit; at a worker site it names the pool round the hit falls
// in, since a round's workers all finish before the next round starts,
// but not which of the round's streams takes it.
//
// A fire ticks faultinject_injected_total and emits no trace event:
// worker sites fire in goroutine order, and the trace records only the
// simulation, so a fixed seed writes the same trace with or without a
// plan.
//
// # Spec grammar
//
// Plans are parsed from the -chaos CLI flag:
//
//	spec   := item (';' item)*
//	item   := 'seed=' INT | rule
//	rule   := point ':' kind (':' param (',' param)*)?
//	kind   := 'panic' | 'error' | 'writeerr'
//	param  := 'p=' FLOAT | 'nth=' INT | 'bytes=' INT
//
// p must lie in (0, 1]. Example: inject a panic into ~15% of worker
// streams, or fail the second checkpoint write after 8 bytes:
//
//	-chaos 'poolsim.worker:panic:p=0.15'
//	-chaos 'runctl.checkpoint.write:writeerr:nth=2,bytes=8'
package faultinject

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"mlec/internal/obs"
)

// Kind is the fault a rule injects at its point.
type Kind int

const (
	// KindPanic panics with an *InjectedError; runctl's containment
	// must turn it into a typed error naming the stream.
	KindPanic Kind = iota
	// KindError returns an *InjectedError from Fire for the caller to
	// propagate like any worker failure.
	KindError
	// KindWriteError arms Writer: the wrapped writer accepts the rule's
	// byte budget and then fails, modeling torn or failed writes.
	KindWriteError
)

// String names the kind the way the spec grammar spells it.
func (k Kind) String() string {
	switch k {
	case KindPanic:
		return "panic"
	case KindError:
		return "error"
	case KindWriteError:
		return "writeerr"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// InjectedError marks a fault this package manufactured, so handling
// layers (and test assertions) can tell injected faults from real ones.
type InjectedError struct {
	Point  string
	Kind   Kind
	Stream int64
}

// Error implements error.
func (e *InjectedError) Error() string {
	return fmt.Sprintf("faultinject: injected %s at %s (stream %d)", e.Kind, e.Point, e.Stream)
}

// Rule is one armed fault: a point, a kind, and a trigger. At most one
// of Prob and Nth selects the trigger; both zero means every hit.
type Rule struct {
	Point string
	Kind  Kind
	// Prob fires on every hit of a stream whose pure function of
	// (seed, point, stream) falls below it.
	Prob float64
	// Nth fires on exactly the nth hit of the point (1-based, counted
	// across all streams).
	Nth int
	// Bytes is how many bytes a KindWriteError writer accepts before
	// failing (default 0: the first write fails outright).
	Bytes int
}

// ruleState is the mutable half of an armed rule.
type ruleState struct {
	rule Rule

	mu sync.Mutex
	// guarded by mu
	hits int64 // global hit counter (nth trigger)
}

// Plan is an immutable set of armed rules plus the decision seed.
type Plan struct {
	Seed  int64
	rules map[string]*ruleState
}

// Rules returns the plan's rules sorted by point name, for reporting.
func (p *Plan) Rules() []Rule {
	points := make([]string, 0, len(p.rules))
	for pt := range p.rules {
		points = append(points, pt)
	}
	sort.Strings(points)
	out := make([]Rule, 0, len(points))
	for _, pt := range points {
		out = append(out, p.rules[pt].rule)
	}
	return out
}

// active is the armed plan; nil means disabled. The nil fast path is
// the package's inertness guarantee: one atomic load, no branches into
// rule state, no allocation.
var active atomic.Pointer[Plan]

// Enable arms the plan process-wide. Enabling nil disables injection.
func Enable(p *Plan) {
	if p != nil && len(p.rules) == 0 {
		p = nil
	}
	active.Store(p)
}

// Disable disarms injection; every Fire/Writer site reverts to the
// one-atomic-load no-op.
func Disable() { active.Store(nil) }

// Enabled reports whether a plan is armed.
func Enabled() bool { return active.Load() != nil }

// injected ticks once per fire.
var injected = obs.Default.Counter("faultinject_injected_total")

// trigger decides whether this hit of the rule fires. It owns all
// mutable rule state; decisions are deterministic given the hit order
// of single-threaded sites and, for probability rules, a pure function
// of (seed, point, stream) regardless of scheduling.
func (rs *ruleState) trigger(seed int64, stream int64) bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.hits++
	switch {
	case rs.rule.Nth > 0:
		return rs.hits == int64(rs.rule.Nth)
	case rs.rule.Prob > 0:
		return unitProb(seed, rs.rule.Point, stream) < rs.rule.Prob
	}
	return true
}

// Fire consults the armed plan for point. With no plan, no rule for
// the point, or an untriggered hit it returns nil; KindError returns
// an *InjectedError; KindPanic panics with an *InjectedError. Stream
// keys probability decisions — pass the same splitmix64 stream id the
// surrounding work is derived from so the fault lands on a
// reproducible stream.
//
//mlec:cold chaos instrumentation; the disabled fast path is one atomic load and armed plans are never a steady-state production configuration
func Fire(point string, stream int64) error {
	plan := active.Load()
	if plan == nil {
		return nil
	}
	rs := plan.rules[point]
	if rs == nil || rs.rule.Kind == KindWriteError {
		return nil
	}
	if !rs.trigger(plan.Seed, stream) {
		return nil
	}
	injected.Inc()
	switch rs.rule.Kind {
	case KindPanic:
		//lint:allow nakedpanic injecting a worker panic is this package's contract; runctl's containment converts it back into an error
		panic(&InjectedError{Point: point, Kind: KindPanic, Stream: stream})
	default:
		return &InjectedError{Point: point, Kind: KindError, Stream: stream}
	}
}

// Writer wraps w with the point's writeerr rule. When the rule
// triggers (decided once per Writer call, which counts as one hit) the
// returned writer accepts the rule's byte budget and then fails every
// subsequent Write with an *InjectedError — a torn write when the
// budget is positive, a failed write when it is zero. Without an armed
// matching rule, w is returned unchanged.
//
//mlec:cold chaos instrumentation on checkpoint-save paths; disabled fast path is one atomic load
func Writer(point string, stream int64, w io.Writer) io.Writer {
	plan := active.Load()
	if plan == nil {
		return w
	}
	rs := plan.rules[point]
	if rs == nil || rs.rule.Kind != KindWriteError {
		return w
	}
	if !rs.trigger(plan.Seed, stream) {
		return w
	}
	injected.Inc()
	return &faultyWriter{
		w:      w,
		remain: rs.rule.Bytes,
		err:    &InjectedError{Point: point, Kind: KindWriteError, Stream: stream},
	}
}

// faultyWriter passes through remain bytes, then fails permanently.
type faultyWriter struct {
	w      io.Writer
	remain int
	err    error
}

func (fw *faultyWriter) Write(p []byte) (int, error) {
	if fw.remain <= 0 {
		return 0, fw.err
	}
	if len(p) <= fw.remain {
		n, err := fw.w.Write(p)
		fw.remain -= n
		return n, err
	}
	n, err := fw.w.Write(p[:fw.remain])
	fw.remain -= n
	if err != nil {
		return n, err
	}
	return n, fw.err
}

// unitProb maps (seed, point, stream) to a uniform probability in
// [0, 1) via splitmix64 over the fowler-noll-vo hash of the point name
// — a pure function, so the set of faulted streams is a property of the
// plan, not of the host or the schedule.
func unitProb(seed int64, point string, stream int64) float64 {
	const (
		fnvOffset = 0xcbf29ce484222325
		fnvPrime  = 0x100000001b3
	)
	h := uint64(fnvOffset)
	for i := 0; i < len(point); i++ {
		h ^= uint64(point[i])
		h *= fnvPrime
	}
	x := uint64(seed) ^ h ^ uint64(stream)*0x9e3779b97f4a7c15
	// splitmix64 finalizer.
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

// Parse builds a plan from a chaos spec (see the package comment for
// the grammar). An empty spec yields a nil plan (injection disabled).
func Parse(spec string) (*Plan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	p := &Plan{Seed: 1, rules: make(map[string]*ruleState)}
	for _, item := range strings.Split(spec, ";") {
		item = strings.TrimSpace(item)
		if item == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(item, "seed="); ok {
			s, err := strconv.ParseInt(rest, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("faultinject: bad seed %q: %v", rest, err)
			}
			p.Seed = s
			continue
		}
		r, err := parseRule(item)
		if err != nil {
			return nil, err
		}
		if _, dup := p.rules[r.Point]; dup {
			return nil, fmt.Errorf("faultinject: duplicate rule for point %q", r.Point)
		}
		p.rules[r.Point] = &ruleState{rule: r}
	}
	if len(p.rules) == 0 {
		return nil, fmt.Errorf("faultinject: spec %q arms no rules", spec)
	}
	return p, nil
}

func parseRule(item string) (Rule, error) {
	parts := strings.SplitN(item, ":", 3)
	if len(parts) < 2 || parts[0] == "" {
		return Rule{}, fmt.Errorf("faultinject: rule %q is not point:kind[:params]", item)
	}
	r := Rule{Point: parts[0]}
	switch parts[1] {
	case "panic":
		r.Kind = KindPanic
	case "error":
		r.Kind = KindError
	case "writeerr":
		r.Kind = KindWriteError
	default:
		return Rule{}, fmt.Errorf("faultinject: rule %q has unknown kind %q (want panic|error|writeerr)", item, parts[1])
	}
	if len(parts) < 3 {
		return r, nil
	}
	triggers := 0
	for _, param := range strings.Split(parts[2], ",") {
		param = strings.TrimSpace(param)
		key, val, found := strings.Cut(param, "=")
		if !found {
			return Rule{}, fmt.Errorf("faultinject: rule %q: parameter %q is not key=value", item, param)
		}
		switch key {
		case "p":
			f, err := strconv.ParseFloat(val, 64)
			if err != nil || !(f > 0 && f <= 1) {
				return Rule{}, fmt.Errorf("faultinject: rule %q: p=%q must be a probability in (0,1]", item, val)
			}
			r.Prob = f
			triggers++
		case "nth":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return Rule{}, fmt.Errorf("faultinject: rule %q: nth=%q must be a positive integer", item, val)
			}
			r.Nth = n
			triggers++
		case "bytes":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return Rule{}, fmt.Errorf("faultinject: rule %q: bytes=%q must be a non-negative integer", item, val)
			}
			r.Bytes = n
		default:
			return Rule{}, fmt.Errorf("faultinject: rule %q: unknown parameter %q", item, key)
		}
	}
	if triggers > 1 {
		return Rule{}, fmt.Errorf("faultinject: rule %q mixes p and nth; pick one trigger", item)
	}
	return r, nil
}
