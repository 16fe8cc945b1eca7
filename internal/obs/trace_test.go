package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
)

func TestRecorderRoundTrip(t *testing.T) {
	var sink bytes.Buffer
	rec := &Recorder{}
	if rec.Enabled() {
		t.Fatal("zero-value recorder reports enabled")
	}
	if err := rec.Start(&sink); err != nil {
		t.Fatal(err)
	}
	if err := rec.Start(&sink); err == nil {
		t.Fatal("second Start did not error")
	}
	rec.Emit(TraceEvent{T: 1.5, Kind: EvFailure, Pool: 2, Disk: 17})
	rec.Emit(TraceEvent{T: 1.5, Kind: EvRepairStart, Pool: 2, Method: "local", Bytes: 4e9})
	rec.Emit(TraceEvent{T: 9.25, Kind: EvRepairEnd, Pool: 2, Method: "local", Bytes: 4e9})
	if err := rec.Stop(); err != nil {
		t.Fatal(err)
	}
	evs, err := ParseTraceEvents(&sink)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 3 {
		t.Fatalf("parsed %d events, want 3", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d, want %d", i, ev.Seq, i+1)
		}
	}
	if evs[0].Kind != EvFailure || evs[0].Disk != 17 {
		t.Fatalf("event 0 = %+v", evs[0])
	}
	if evs[2].T != 9.25 || evs[2].Bytes != 4e9 {
		t.Fatalf("event 2 = %+v", evs[2])
	}
	// Stopped recorder: emissions are dropped, Stop is idempotent.
	before := sink.Len()
	rec.Emit(TraceEvent{Kind: EvFailure})
	if err := rec.Stop(); err != nil {
		t.Fatal(err)
	}
	if sink.Len() != before {
		t.Fatal("emission after Stop reached the sink")
	}
}

// TestRecorderConcurrentEmit emits from several goroutines at once, as
// pool workers do: every event must reach the sink exactly once, with
// the sequence numbers 1..n and no torn lines.
func TestRecorderConcurrentEmit(t *testing.T) {
	const workers, each = 4, 200
	var sink bytes.Buffer
	rec := &Recorder{}
	if err := rec.Start(&sink); err != nil {
		t.Fatal(err)
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for i := 0; i < each; i++ {
				rec.Emit(TraceEvent{T: float64(i), Kind: EvFailure, Pool: w})
			}
		}()
	}
	close(start)
	wg.Wait()
	if err := rec.Stop(); err != nil {
		t.Fatal(err)
	}
	evs, err := ParseTraceEvents(&sink)
	if err != nil {
		t.Fatalf("concurrent trace does not parse: %v", err)
	}
	// ParseTraceEvents checks the sequence strictly increases, so n
	// events ending at seq n are exactly 1..n.
	if len(evs) != workers*each || evs[len(evs)-1].Seq != workers*each {
		t.Fatalf("parsed %d events, want seq 1..%d", len(evs), workers*each)
	}
}

func TestRecorderOffIsNoop(t *testing.T) {
	rec := &Recorder{}
	rec.Emit(TraceEvent{Kind: EvFailure}) // must not panic or buffer
	if err := rec.Stop(); err != nil {
		t.Fatal(err)
	}
}

func TestRecorderRestartResetsSequence(t *testing.T) {
	var first, second bytes.Buffer
	rec := &Recorder{}
	if err := rec.Start(&first); err != nil {
		t.Fatal(err)
	}
	rec.Emit(TraceEvent{Kind: EvLevelPromotion})
	rec.Emit(TraceEvent{Kind: EvLevelPromotion})
	if err := rec.Stop(); err != nil {
		t.Fatal(err)
	}
	if err := rec.Start(&second); err != nil {
		t.Fatal(err)
	}
	rec.Emit(TraceEvent{Kind: EvLevelPromotion})
	if err := rec.Stop(); err != nil {
		t.Fatal(err)
	}
	evs, err := ParseTraceEvents(&second)
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 1 || evs[0].Seq != 1 {
		t.Fatalf("restarted recorder events = %+v, want one event with seq 1", evs)
	}
}

// TestHeldCommitMatchesDirectEmit runs three emitters at once, each into
// its own held recorder, and commits them in order: the sink must hold
// the bytes of the same events emitted one run after another. The runs
// fill several of a held recorder's chunks, one event is longer than a
// chunk, and the flush threshold is crossed on the way.
func TestHeldCommitMatchesDirectEmit(t *testing.T) {
	runs := make([][]TraceEvent, 3)
	for i := range runs {
		for j := range 1200 + 50*i {
			runs[i] = append(runs[i], TraceEvent{T: float64(j) / 3, Kind: EvRepairStart,
				Pool: i, Disk: j, Method: "local", Bytes: 1e9 * float64(j)})
		}
	}
	runs[1][700].Note = strings.Repeat("x", traceFlushThreshold+10)
	var direct, committed bytes.Buffer
	rec := &Recorder{}
	if err := rec.Start(&direct); err != nil {
		t.Fatal(err)
	}
	for _, evs := range runs {
		for _, ev := range evs {
			rec.Emit(ev)
		}
	}
	if err := rec.Stop(); err != nil {
		t.Fatal(err)
	}

	if err := rec.Start(&committed); err != nil {
		t.Fatal(err)
	}
	held := make([]*Recorder, len(runs))
	var wg sync.WaitGroup
	for i, evs := range runs {
		held[i] = rec.Hold()
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, ev := range evs {
				held[i].Emit(ev)
			}
		}()
	}
	wg.Wait()
	if committed.Len() != 0 {
		t.Fatal("held events reached the sink before Commit")
	}
	for _, h := range held {
		rec.Commit(h)
		rec.Commit(h) // emptied: a second commit adds nothing
	}
	if err := rec.Stop(); err != nil {
		t.Fatal(err)
	}
	if direct.Len() < traceFlushThreshold {
		t.Fatalf("trace of %d bytes never crosses the flush threshold", direct.Len())
	}
	if !bytes.Equal(committed.Bytes(), direct.Bytes()) {
		t.Fatalf("committed trace (%d bytes) differs from the direct one (%d bytes)", committed.Len(), direct.Len())
	}
}

// TestHoldOffKeepsNothing: a recorder held from a stopped one is off, so
// its Emit allocates nothing and a Commit writes nothing.
func TestHoldOffKeepsNothing(t *testing.T) {
	rec := &Recorder{}
	h := rec.Hold()
	if h.Enabled() {
		t.Fatal("recorder held from an off one is on")
	}
	if n := testing.AllocsPerRun(100, func() { h.Emit(TraceEvent{Kind: EvFailure, Pool: 3}) }); n != 0 {
		t.Fatalf("off held Emit allocates %.1f times", n)
	}
	var sink bytes.Buffer
	if err := rec.Start(&sink); err != nil {
		t.Fatal(err)
	}
	rec.Commit(h)
	if err := rec.Stop(); err != nil {
		t.Fatal(err)
	}
	if sink.Len() != 0 {
		t.Fatalf("commit of an off held recorder wrote %q", sink.String())
	}
}

func TestRecorderFlushesAtThreshold(t *testing.T) {
	var sink bytes.Buffer
	rec := &Recorder{}
	if err := rec.Start(&sink); err != nil {
		t.Fatal(err)
	}
	long := strings.Repeat("x", 1024)
	for i := 0; i < traceFlushThreshold/1024+2; i++ {
		rec.Emit(TraceEvent{Kind: EvLevelPromotion, Note: long})
	}
	if sink.Len() == 0 {
		t.Fatal("buffer never flushed despite crossing the threshold")
	}
	if err := rec.Stop(); err != nil {
		t.Fatal(err)
	}
}

// TestKnownEventKindsAreSimulationFacts pins the trace's vocabulary:
// syssim's five kinds and the splitting level boundary, nothing about
// how the process was run.
func TestKnownEventKindsAreSimulationFacts(t *testing.T) {
	want := []string{EvFailure, EvLevelPromotion, EvPoolCat, EvPoolHeal, EvRepairEnd, EvRepairStart}
	var got []string
	for _, kv := range SortedSnapshot(KnownEventKinds()) {
		got = append(got, kv.Key)
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("KnownEventKinds = %v, want %v", got, want)
	}
}

func TestParseTraceRejects(t *testing.T) {
	bad := map[string]string{
		"unknown kind":   `{"seq":1,"t":0,"kind":"made_up"}`,
		"run control":    `{"seq":1,"t":0,"kind":"checkpoint"}`,
		"repeated seq":   "{\"seq\":1,\"kind\":\"failure\"}\n{\"seq\":1,\"kind\":\"failure\"}",
		"decreasing seq": "{\"seq\":2,\"kind\":\"failure\"}\n{\"seq\":1,\"kind\":\"failure\"}",
		"zero seq":       `{"seq":0,"kind":"failure"}`,
		"not json":       "this is not json",
	}
	for name, in := range bad {
		if _, err := ParseTraceEvents(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
	evs, err := ParseTraceEvents(strings.NewReader("\n\n{\"seq\":3,\"kind\":\"pool_heal\"}\n\n"))
	if err != nil || len(evs) != 1 {
		t.Fatalf("blank lines must be skipped: %v %v", evs, err)
	}
}
