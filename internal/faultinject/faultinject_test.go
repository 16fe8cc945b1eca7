package faultinject

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"slices"
	"strings"
	"sync"
	"testing"

	"mlec/internal/obs"
)

// arm parses and enables spec for the duration of the test.
func arm(t *testing.T, spec string) *Plan {
	t.Helper()
	p, err := Parse(spec)
	if err != nil {
		t.Fatalf("Parse(%q): %v", spec, err)
	}
	Enable(p)
	t.Cleanup(Disable)
	return p
}

func TestParseGrammar(t *testing.T) {
	good := []struct {
		spec string
		want func(t *testing.T, p *Plan)
	}{
		{"a.b:panic", func(t *testing.T, p *Plan) {
			r := p.Rules()[0]
			if r.Kind != KindPanic || r.Prob != 0 || r.Nth != 0 {
				t.Errorf("rule = %+v", r)
			}
		}},
		{"a.b:error:p=0.25;seed=42", func(t *testing.T, p *Plan) {
			r := p.Rules()[0]
			if r.Prob != 0.25 || p.Seed != 42 {
				t.Errorf("rule = %+v seed = %d", r, p.Seed)
			}
		}},
		{"a:writeerr:nth=2,bytes=16; b:error:nth=3", func(t *testing.T, p *Plan) {
			rs := p.Rules()
			if len(rs) != 2 {
				t.Fatalf("rules = %+v", rs)
			}
			if rs[0].Nth != 2 || rs[0].Bytes != 16 {
				t.Errorf("writeerr rule = %+v", rs[0])
			}
			if rs[1].Kind != KindError || rs[1].Nth != 3 {
				t.Errorf("error rule = %+v", rs[1])
			}
		}},
		{"a:panic:p=1", func(t *testing.T, p *Plan) {
			if r := p.Rules()[0]; r.Prob != 1 {
				t.Errorf("rule = %+v", r)
			}
		}},
	}
	for _, tc := range good {
		p, err := Parse(tc.spec)
		if err != nil {
			t.Errorf("Parse(%q): %v", tc.spec, err)
			continue
		}
		tc.want(t, p)
	}

	bad := []string{
		"a.b",                     // no kind
		"a.b:explode",             // unknown kind
		"a.b:panic:p=2",           // probability out of range
		"pt:error:p=0;seed=1",     // p=0 would fall through to "every hit"
		"a.b:panic:p=-0.1",        // negative probability
		"a.b:panic:p=NaN",         // not a probability
		"a.b:delay:ms=5",          // no delay kind
		"a.b:panic:p=0.1,nth=3",   // two triggers
		"a.b:panic:wat",           // not key=value
		"a.b:panic:zzz=1",         // unknown parameter
		"a.b:error:every=2",       // no periodic trigger
		"a.b:error:p=0.5,count=3", // no fire cap
		"seed=x",                  // bad seed
		"a:panic;a:error",         // duplicate point
		"seed=5",                  // arms no rules
		":panic",                  // empty point
	}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted a malformed spec", spec)
		}
	}

	// Empty spec: disabled, not an error.
	if p, err := Parse("  "); err != nil || p != nil {
		t.Errorf("Parse(empty) = %v, %v; want nil, nil", p, err)
	}
}

func TestFireDisabledIsInert(t *testing.T) {
	Disable()
	if err := Fire("any.point", 7); err != nil {
		t.Fatalf("disabled Fire returned %v", err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if err := Fire("any.point", 7); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("disabled Fire allocates %v per call, want 0", allocs)
	}
}

func TestNthTrigger(t *testing.T) {
	arm(t, "pt:error:nth=3")
	for hit := 1; hit <= 5; hit++ {
		err := Fire("pt", 0)
		if (hit == 3) != (err != nil) {
			t.Errorf("hit %d: err = %v", hit, err)
		}
		if err != nil {
			var ie *InjectedError
			if !errors.As(err, &ie) || ie.Point != "pt" || ie.Kind != KindError {
				t.Errorf("hit %d: error %v is not a typed injection", hit, err)
			}
		}
	}
}

// TestProbIsStatelessPerStream pins the probability trigger: the set
// of faulted streams is a pure function of (seed, point, stream), and
// the decision carries no state, so every hit of a faulted stream fires
// and no hit of another stream does.
func TestProbIsStatelessPerStream(t *testing.T) {
	const spec = "pt:error:p=0.3;seed=9"
	cursed := func() map[int64]bool {
		p, err := Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		Enable(p)
		defer Disable()
		out := map[int64]bool{}
		for s := int64(0); s < 2000; s++ {
			if Fire("pt", s) != nil {
				out[s] = true
			}
		}
		return out
	}
	a, b := cursed(), cursed()
	if len(a) == 0 {
		t.Fatal("p=0.3 cursed no streams out of 2000")
	}
	frac := float64(len(a)) / 2000
	if frac < 0.2 || frac > 0.4 {
		t.Errorf("cursed fraction %.3f far from p=0.3", frac)
	}
	if len(a) != len(b) {
		t.Fatalf("two identical plans cursed %d vs %d streams", len(a), len(b))
	}
	for s := range a {
		if !b[s] {
			t.Fatalf("stream %d cursed in one run but not the other", s)
		}
	}

	// Repeated hits decide the same way as the first.
	arm(t, spec)
	for s := int64(0); s < 50; s++ {
		for hit := 0; hit < 3; hit++ {
			if got := Fire("pt", s) != nil; got != a[s] {
				t.Fatalf("stream %d hit %d: fired=%v, first pass fired=%v", s, hit, got, a[s])
			}
		}
	}
}

// TestConcurrentFiresCurseTheSameStreams fires one probability rule from
// several pool-like workers at once: the fired set must be the one a
// single goroutine sees, because the decision is a pure function of
// (seed, point, stream). Under -race this is the rule state's
// data-race certificate.
func TestConcurrentFiresCurseTheSameStreams(t *testing.T) {
	const workers, each = 4, 250
	plan := arm(t, "pt:error:p=0.3;seed=9")
	start := make(chan struct{})
	fired := make([][]int64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for s := int64(w * each); s < int64((w+1)*each); s++ {
				if Fire("pt", s) != nil {
					fired[w] = append(fired[w], s)
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	var want []int64
	for s := int64(0); s < workers*each; s++ {
		if unitProb(plan.Seed, "pt", s) < 0.3 {
			want = append(want, s)
		}
	}
	if got := slices.Concat(fired...); !slices.Equal(got, want) {
		t.Fatalf("concurrent fires cursed %d streams, a sequential pass %d", len(got), len(want))
	}
}

// TestConcurrentFirstFiresShareOneCell fires several rules from separate
// goroutines at once: every fire must land on the one
// faultinject_injected_total counter.
func TestConcurrentFirstFiresShareOneCell(t *testing.T) {
	const workers, each = 4, 20
	arm(t, "a:error;b:error;c:panic;d:error")
	total := obs.Default.Counter("faultinject_injected_total")
	before := total.Value()
	start := make(chan struct{})
	var wg sync.WaitGroup
	for _, point := range []string{"a", "b", "c", "d"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < each; i++ {
				fired := func() (fired bool) {
					defer func() { fired = fired || recover() != nil }()
					return Fire(point, int64(i)) != nil
				}()
				if !fired {
					t.Errorf("%s: unconditional rule did not fire", point)
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	if got := total.Value() - before; got != workers*each {
		t.Fatalf("injected counter advanced by %d, want %d", got, workers*each)
	}
}

func TestPanicKindPanicsTyped(t *testing.T) {
	arm(t, "pt:panic:nth=1")
	defer func() {
		r := recover()
		ie, ok := r.(*InjectedError)
		if !ok || ie.Kind != KindPanic || ie.Stream != 11 {
			t.Errorf("recovered %v, want *InjectedError{KindPanic, stream 11}", r)
		}
	}()
	_ = Fire("pt", 11)
	t.Fatal("Fire did not panic")
}

// TestFireLeavesNoTraceEvent pins the trace as a record of the
// simulation alone: a Fire and a Writer that trigger return their typed
// faults and tick the injected counter, and a running trace stays
// empty.
func TestFireLeavesNoTraceEvent(t *testing.T) {
	arm(t, "pt:error:nth=1;wp:writeerr:nth=1")
	total := obs.Default.Counter("faultinject_injected_total")
	before := total.Value()
	var trace bytes.Buffer
	if err := obs.Trace.Start(&trace); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { obs.Trace.Stop() })
	fireErr := Fire("pt", 3)
	_, writeErr := Writer("wp", 4, io.Discard).Write([]byte("x"))
	if err := obs.Trace.Stop(); err != nil {
		t.Fatal(err)
	}
	var ie *InjectedError
	if !errors.As(fireErr, &ie) || ie.Point != "pt" || ie.Kind != KindError || ie.Stream != 3 {
		t.Errorf("Fire = %v, want the injected error at pt on stream 3", fireErr)
	}
	if !errors.As(writeErr, &ie) || ie.Point != "wp" || ie.Kind != KindWriteError {
		t.Errorf("Write = %v, want the injected write error at wp", writeErr)
	}
	if d := total.Value() - before; d != 2 {
		t.Errorf("faultinject_injected_total advanced by %d, want 2", d)
	}
	if trace.Len() != 0 {
		t.Errorf("injected faults wrote to the trace:\n%s", trace.String())
	}
}

func TestWriterPartialAndFailedWrites(t *testing.T) {
	arm(t, "wp:writeerr:nth=1,bytes=4")
	var sink bytes.Buffer
	w := Writer("wp", 0, &sink)
	n, err := w.Write([]byte("abcdefgh"))
	if n != 4 || err == nil {
		t.Fatalf("torn write: n=%d err=%v, want 4 bytes then an error", n, err)
	}
	var ie *InjectedError
	if !errors.As(err, &ie) || ie.Kind != KindWriteError {
		t.Fatalf("error %v is not a typed write injection", err)
	}
	if sink.String() != "abcd" {
		t.Fatalf("sink holds %q, want the partial prefix", sink.String())
	}
	if _, err := w.Write([]byte("x")); err == nil {
		t.Fatal("writer recovered after injected failure")
	}

	// nth=1 already consumed: the next Writer call passes through.
	var clean bytes.Buffer
	w2 := Writer("wp", 0, &clean)
	if n, err := w2.Write([]byte("ok")); n != 2 || err != nil {
		t.Fatalf("second writer faulted: n=%d err=%v", n, err)
	}
	if _, isFaulty := w2.(*faultyWriter); isFaulty {
		t.Fatal("untriggered Writer returned a faulty writer")
	}

	// Fire never serves writeerr rules.
	if err := Fire("wp", 0); err != nil {
		t.Fatalf("Fire served a writeerr rule: %v", err)
	}
}

func TestFlagsActivate(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	f := BindCLIFlags(fs)
	if err := fs.Parse([]string{"-chaos", "pt:panic:p=0.5"}); err != nil {
		t.Fatal(err)
	}
	var errw bytes.Buffer
	stop, err := f.Activate(&errw)
	if err != nil {
		t.Fatal(err)
	}
	if !Enabled() {
		t.Fatal("Activate did not arm the plan")
	}
	if !strings.Contains(errw.String(), "chaos:") || !strings.Contains(errw.String(), "pt") {
		t.Errorf("announcement missing from stderr: %q", errw.String())
	}
	stop()
	if Enabled() {
		t.Fatal("stop did not disarm the plan")
	}

	// No spec arms nothing.
	stop2, err := (&CLIFlags{}).Activate(&errw)
	if err != nil {
		t.Fatal(err)
	}
	stop2()
	if Enabled() {
		t.Fatal("empty spec armed a plan")
	}

	// A malformed spec is a usage error, not a silent no-op.
	f3 := &CLIFlags{Spec: "broken"}
	if _, err := f3.Activate(&errw); err == nil {
		t.Fatal("Activate accepted a malformed spec")
	}
}
