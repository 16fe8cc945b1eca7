package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Trace event kinds: simulation facts only. Times are simulated hours,
// and a level_promotion's clock is its splitting level. The recorder
// never stamps wall-clock time and run control (checkpoint saves and
// fallbacks, injected faults) emits nothing, so a fixed-seed run
// produces an identical trace on any host, with or without -checkpoint
// and -chaos.
const (
	EvFailure        = "failure"         // a disk failed
	EvRepairStart    = "repair_start"    // a repair began (local or network)
	EvRepairEnd      = "repair_end"      // a repair completed
	EvPoolCat        = "pool_cat"        // a pool crossed into catastrophic state
	EvPoolHeal       = "pool_heal"       // a catastrophic pool fully re-protected
	EvLevelPromotion = "level_promotion" // a splitting run advanced one level
)

// eventKindDescriptions is the single source of truth for the kinds
// the tree emits: ParseTraceEvents validates against it, and
// `mlectrace events` renders its summaries from it. Adding an Ev*
// constant without a row here makes every trace containing it
// unparseable, which is how the set stays in sync.
var eventKindDescriptions = map[string]string{
	EvFailure:        "disk failed",
	EvRepairStart:    "repair began",
	EvRepairEnd:      "repair completed",
	EvPoolCat:        "pool went catastrophic",
	EvPoolHeal:       "pool fully re-protected",
	EvLevelPromotion: "splitting run advanced one level",
}

// KnownEventKinds returns every event kind the tree emits with its
// one-line description, keyed by kind.
func KnownEventKinds() map[string]string {
	out := make(map[string]string, len(eventKindDescriptions))
	for k, v := range eventKindDescriptions {
		out[k] = v
	}
	return out
}

// TraceEvent is one JSONL record of a simulated-time trace. Unused
// fields stay at their zero values and are omitted from the encoding;
// Seq is a process-wide sequence number assigned at emission (for a
// held event, at its commit) so cmd/mlectrace can detect truncated or
// interleaved files.
type TraceEvent struct {
	Seq    uint64  `json:"seq"`
	T      float64 `json:"t"` // simulated hours
	Kind   string  `json:"kind"`
	Pool   int     `json:"pool,omitempty"`
	Disk   int     `json:"disk,omitempty"`
	Level  int     `json:"level,omitempty"`
	Method string  `json:"method,omitempty"`
	Bytes  float64 `json:"bytes,omitempty"`
	Note   string  `json:"note,omitempty"`
}

// traceFlushThreshold bounds the recorder's in-memory buffer: once the
// pending encoded bytes pass it, they are flushed to the sink inside
// the emitting call. There is no background drain goroutine, so a
// trace file's content is a deterministic function of the event
// sequence alone.
const traceFlushThreshold = 64 * 1024

// Recorder buffers trace events and writes them as JSONL. The zero
// value is a disabled recorder whose Emit is a single atomic load —
// cheap enough to leave emission sites unconditioned.
type Recorder struct {
	on atomic.Bool
	// held marks a recorder made by Hold: it numbers nothing, writes
	// nowhere and keeps what it encodes, in kept, for Commit. Set before
	// first use.
	held bool

	mu sync.Mutex
	// guarded by mu
	sink io.Writer
	// guarded by mu
	buf bytes.Buffer
	// guarded by mu
	seq uint64
	// guarded by mu
	err error // first write/encode error; emission stops on it
	// guarded by mu
	kept [][]byte // a held recorder's lines, in chunks of traceFlushThreshold bytes
}

// Trace is the process-wide recorder; -trace-out starts it.
var Trace = &Recorder{}

// Start begins recording to sink. It returns an error if the recorder
// is already running.
func (r *Recorder) Start(sink io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.on.Load() {
		return fmt.Errorf("obs: trace recorder already started")
	}
	r.sink = sink
	r.buf.Reset()
	r.seq = 0
	r.err = nil
	r.on.Store(true)
	return nil
}

// Emit records one event. When the recorder is off this is one atomic
// load and no allocation; engines therefore call it unconditionally.
func (r *Recorder) Emit(ev TraceEvent) {
	if !r.on.Load() {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.on.Load() || r.err != nil {
		return
	}
	if !r.held {
		r.seq++ // a held recorder's stays 0: Commit numbers its events
	}
	ev.Seq = r.seq
	b, err := json.Marshal(ev)
	if err != nil {
		r.err = err
		return
	}
	if r.held {
		r.keepLocked(b)
		return
	}
	r.buf.Write(b)
	r.buf.WriteByte('\n')
	if r.buf.Len() >= traceFlushThreshold {
		r.flushLocked()
	}
}

func (r *Recorder) flushLocked() {
	if r.err != nil || r.sink == nil || r.buf.Len() == 0 {
		return
	}
	_, err := r.sink.Write(r.buf.Bytes())
	r.buf.Reset()
	if err != nil {
		r.err = err
	}
}

// keepLocked appends one encoded line to a held recorder's chunks. Fixed
// chunks hold the trace without the copies and spare capacity of one
// doubling buffer: a full-scale syssim run keeps tens of megabytes.
func (r *Recorder) keepLocked(line []byte) {
	n := len(r.kept) - 1
	if n < 0 || len(r.kept[n])+len(line)+1 > cap(r.kept[n]) {
		r.kept = append(r.kept, make([]byte, 0, max(traceFlushThreshold, len(line)+1)))
		n++
	}
	r.kept[n] = append(append(r.kept[n], line...), '\n')
}

// Hold returns a recorder for one of several runs that go at once but
// whose events must reach r in a fixed order. It is on if r is on now
// (off, its Emit is one atomic load and it keeps nothing). It encodes
// each event as it comes, unnumbered, and keeps them all until r.Commit.
func (r *Recorder) Hold() *Recorder {
	h := &Recorder{held: true}
	h.on.Store(r.on.Load())
	return h
}

// heldPrefix opens every line a held recorder encodes: the sequence
// number json.Marshal writes for Seq 0.
const heldPrefix = `{"seq":0`

// Commit appends the events h holds to r's trace in the order h was sent
// them, numbering each now, and empties h. The bytes are those r would
// have written had the events been emitted to it directly at this point,
// so runs that commit in a fixed order leave the trace a function of the
// seed alone, however they were scheduled.
func (r *Recorder) Commit(h *Recorder) {
	h.mu.Lock()
	kept, herr := h.kept, h.err
	h.kept, h.err = nil, nil
	h.mu.Unlock()
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.on.Load() || r.err != nil {
		return
	}
	if herr != nil {
		r.err = herr
		return
	}
	var num [20]byte
	for _, chunk := range kept {
		for len(chunk) > 0 {
			n := bytes.IndexByte(chunk, '\n') + 1
			r.seq++
			r.buf.WriteString(`{"seq":`)
			r.buf.Write(strconv.AppendUint(num[:0], r.seq, 10))
			r.buf.Write(chunk[len(heldPrefix):n])
			chunk = chunk[n:]
			if r.buf.Len() >= traceFlushThreshold {
				r.flushLocked()
			}
		}
	}
}

// Stop flushes pending events, disables the recorder and returns the
// first error encountered over its lifetime (encoding or sink writes).
// The sink itself is owned by the caller (the CLI closes the file).
func (r *Recorder) Stop() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.on.Load() {
		return nil
	}
	r.flushLocked()
	r.on.Store(false)
	r.sink = nil
	return r.err
}

// Enabled reports whether the recorder is running.
func (r *Recorder) Enabled() bool { return r.on.Load() }

// ParseTraceEvents reads a JSONL trace, validating that every line
// decodes, that kinds are known, and that sequence numbers increase
// strictly — the schema contract cmd/mlectrace relies on.
func ParseTraceEvents(rd io.Reader) ([]TraceEvent, error) {
	var out []TraceEvent
	sc := bufio.NewScanner(rd)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	lineNo := 0
	var lastSeq uint64
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var ev TraceEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
		if _, known := eventKindDescriptions[ev.Kind]; !known {
			return nil, fmt.Errorf("trace: line %d: unknown event kind %q", lineNo, ev.Kind)
		}
		if ev.Seq <= lastSeq {
			return nil, fmt.Errorf("trace: line %d: sequence %d not increasing (after %d)",
				lineNo, ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		out = append(out, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	return out, nil
}
