package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Causal wall-clock spans. A Span measures the wall time of one phase of
// a run — a splitting level, a checkpoint save, a worker stream, a whole
// campaign — and records, on End, one JSONL line carrying its begin/end
// offsets and its parent's id, so cmd/mlectrace can rebuild the tree and
// roll up where the wall time went.
//
// Spans are deliberately a separate stream from the Recorder's
// simulated-time trace: trace events are deterministic facts of the
// simulation (byte-identical across hosts for a fixed seed), while spans
// are wall-clock measurements that differ on every run. Mixing them
// would destroy the trace's fixed-seed byte-identity, so they never
// share a file or a schema. Spans live behind the same sanctioned
// walltime-analyzer exemption as the progress tracker: wall-clock
// readings happen only inside this package, and nothing here is ever
// read back by simulation code.

// SpanRecord is one JSONL record of a span file. Times are wall-clock
// milliseconds since the recorder started; Parent is 0 for root spans.
type SpanRecord struct {
	ID      uint64  `json:"id"`
	Parent  uint64  `json:"parent,omitempty"`
	Name    string  `json:"name"`
	BeginMS float64 `json:"begin_ms"`
	EndMS   float64 `json:"end_ms"`
	Note    string  `json:"note,omitempty"`
}

// Dur returns the span's wall duration in milliseconds.
func (r SpanRecord) Dur() float64 { return r.EndMS - r.BeginMS }

// SpanRecorder writes ended spans as JSONL. The zero value is a
// disabled recorder whose StartSpan is a single atomic load and no
// allocation — emission sites stay unconditioned, which is what keeps
// the span machinery inert when off.
type SpanRecorder struct {
	on  atomic.Bool
	ids atomic.Uint64

	mu sync.Mutex
	// guarded by mu
	sink io.Writer
	// guarded by mu
	epoch time.Time
	// guarded by mu
	err error // first write/encode error; emission stops on it
}

// Spans is the process-wide span recorder; -span-out starts it.
var Spans = &SpanRecorder{}

// Start begins recording to sink. It returns an error if the recorder
// is already running.
func (r *SpanRecorder) Start(sink io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.on.Load() {
		return fmt.Errorf("obs: span recorder already started")
	}
	r.sink = sink
	r.epoch = time.Now()
	r.err = nil
	r.ids.Store(0)
	r.on.Store(true)
	return nil
}

// Stop disables the recorder and returns the first error encountered
// over its lifetime. Spans still open at Stop are simply never written;
// the sink itself is owned by the caller (the CLI closes the file).
func (r *SpanRecorder) Stop() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.on.Load() {
		return nil
	}
	r.on.Store(false)
	r.sink = nil
	return r.err
}

// Enabled reports whether the recorder is running.
func (r *SpanRecorder) Enabled() bool { return r.on.Load() }

// Span is one in-flight wall-clock measurement. A nil *Span is valid
// everywhere — it is what StartSpan returns while the recorder is off,
// and Child/End on it stay no-ops — so instrumentation sites need no
// enabled-checks of their own.
type Span struct {
	rec    *SpanRecorder
	id     uint64
	parent uint64
	name   string
	begin  time.Time
}

// StartSpan opens a root span. Returns nil (a no-op span) when the
// recorder is off.
func StartSpan(name string) *Span { return Spans.start(name, 0) }

// Child opens a span parented under s. Calling Child on a nil span
// opens a root span instead, so helpers can parent under "whatever the
// caller measured" without caring whether the caller measured at all.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return Spans.start(name, 0)
	}
	return s.rec.start(name, s.id)
}

func (r *SpanRecorder) start(name string, parent uint64) *Span {
	if !r.on.Load() {
		return nil
	}
	return &Span{rec: r, id: r.ids.Add(1), parent: parent, name: name, begin: time.Now()}
}

// End closes the span and writes its record. End on a nil span is a
// no-op; End is not idempotent (ending twice writes twice), so each
// span must be ended exactly once.
func (s *Span) End() { s.EndNote("") }

// EndNote is End with a free-form annotation attached to the record.
func (s *Span) EndNote(note string) {
	if s == nil {
		return
	}
	end := time.Now()
	r := s.rec
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.on.Load() || r.err != nil {
		return
	}
	rec := SpanRecord{
		ID:      s.id,
		Parent:  s.parent,
		Name:    s.name,
		BeginMS: float64(s.begin.Sub(r.epoch)) / float64(time.Millisecond),
		EndMS:   float64(end.Sub(r.epoch)) / float64(time.Millisecond),
		Note:    note,
	}
	b, err := json.Marshal(rec)
	if err != nil {
		r.err = err
		return
	}
	b = append(b, '\n')
	if _, err := r.sink.Write(b); err != nil {
		r.err = err
	}
}

// ParseSpans reads a JSONL span file, validating that every line
// decodes, ids are positive and unique, parents precede their children
// (a parent id is always smaller — parents start first), names are
// non-empty, and every span ends at or after it begins — the schema
// contract `mlectrace spans` relies on. Records appear in End order,
// which is not begin order; callers sort as needed.
func ParseSpans(rd io.Reader) ([]SpanRecord, error) {
	var out []SpanRecord
	seen := make(map[uint64]bool)
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var rec SpanRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			return nil, fmt.Errorf("spans: line %d: %w", lineNo, err)
		}
		if rec.ID == 0 {
			return nil, fmt.Errorf("spans: line %d: span id 0", lineNo)
		}
		if seen[rec.ID] {
			return nil, fmt.Errorf("spans: line %d: duplicate span id %d", lineNo, rec.ID)
		}
		seen[rec.ID] = true
		if rec.Parent >= rec.ID {
			return nil, fmt.Errorf("spans: line %d: span %d has parent %d (parents start first, so parent < id)",
				lineNo, rec.ID, rec.Parent)
		}
		if rec.Name == "" {
			return nil, fmt.Errorf("spans: line %d: span %d has no name", lineNo, rec.ID)
		}
		if rec.EndMS < rec.BeginMS {
			return nil, fmt.Errorf("spans: line %d: span %d ends (%g ms) before it begins (%g ms)",
				lineNo, rec.ID, rec.EndMS, rec.BeginMS)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("spans: %w", err)
	}
	return out, nil
}
