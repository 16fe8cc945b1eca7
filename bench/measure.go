package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"hash/crc32"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"mlec/internal/obs"
)

// checker counts the operations of a run and the ones that errored or
// failed an output check. Every check of every workload goes through it, so
// failed ÷ attempted is the run's failed share.
type checker struct {
	attempted, failed int
	// messages holds the first few failures, for the operator.
	messages []string
}

// ok records one operation; it returns cond so callers can chain.
func (c *checker) ok(cond bool, format string, args ...any) bool {
	c.attempted++
	if !cond {
		c.failed++
		if len(c.messages) < 8 {
			c.messages = append(c.messages, fmt.Sprintf(format, args...))
		}
	}
	return cond
}

// noErr records an operation that returned err.
func (c *checker) noErr(err error, what string) bool {
	return c.ok(err == nil, "%s: %v", what, err)
}

// digest fingerprints the deterministic outputs of a pass. Small values
// hash directly; large buffers enter as length + CRC-32C so a pass does
// not spend its time hashing.
type digest struct{ h hash.Hash }

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func newDigest() digest { return digest{h: sha256.New()} }

func (d digest) str(s string) { d.h.Write([]byte(s)); d.h.Write([]byte{0}) }

func (d digest) f64(vs ...float64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		d.h.Write(b[:])
	}
}

func (d digest) i64(vs ...int64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		d.h.Write(b[:])
	}
}

func (d digest) blob(p []byte) {
	d.i64(int64(len(p)), int64(crc32.Checksum(p, castagnoli)))
}

func (d digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)[:12]) }

// engineCounters are the program's own work counters the benchmark reads
// (never writes) around a pass, with the per-layer metric each feeds.
var engineCounters = []struct{ metric, counter string }{
	{"poolsim.trajectories", "poolsim_split_trajectories_total"},
	{"syssim.events", "syssim_events_total"},
	{"syssim.disk_failures", "syssim_disk_failures_total"},
	{"burst.trials", "burst_pdl_trials_total"},
	{"runctl.streams", "runctl_pool_workers_started_total"},
	{"runctl.retries", "runctl_stream_retries_total"},
}

// engineCounter returns the program's counter behind a per-layer metric.
func engineCounter(metric string) *obs.Counter {
	for _, c := range engineCounters {
		if c.metric == metric {
			return obs.Default.Counter(c.counter)
		}
	}
	panic("bench: no engine counter feeds " + metric) // a typo in this package
}

func readEngineCounters() []int64 {
	out := make([]int64, len(engineCounters))
	for i, c := range engineCounters {
		out[i] = obs.Default.Counter(c.counter).Value()
	}
	return out
}

// passCtx is what a workload's pass function works through: timed blocks
// accumulate the pass's wall time and allocation, checks count operations,
// and the digest collects the deterministic outputs.
type passCtx struct {
	ck  *checker
	dig digest
	tr  *tracer // nil when tracing is off
	// root is the pass's span id when tracing.
	root int

	wall    time.Duration
	ops     int // timed blocks so far
	alloc   uint64
	mallocs uint64

	// work is the pass's size in the workload's work unit.
	work float64
	// codecMB counts the user data the pass itself pushed through
	// rs / lrc / cluster.
	codecMB float64
	// counts are engine counter deltas over the pass, plus what the
	// pass adds itself (poolsim.levels).
	counts map[string]float64
}

// timed runs fn as one measured operation of the pass: its wall time and
// allocation count towards the pass, and a traced run records it as a
// span of the given layer. Everything a pass does outside timed blocks —
// output checks, digests, rebuilding inputs — is not measured.
func (p *passCtx) timed(layer, name string, fn func()) {
	var m0, m1 runtime.MemStats
	span := p.tr.begin(layer, name, p.root)
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	p.tr.end(span)
	p.wall += d
	p.ops++
	p.alloc += m1.TotalAlloc - m0.TotalAlloc
	p.mallocs += m1.Mallocs - m0.Mallocs
}

// untimed runs fn outside the measurement but still as a span, so a trace
// shows where a pass's unmeasured time went (cluster rebuilds).
func (p *passCtx) untimed(layer, name string, fn func()) {
	span := p.tr.begin(layer, name, p.root)
	fn()
	p.tr.end(span)
}

// passResult is one pass as measured.
type passResult struct {
	WallS     float64 `json:"wall_s"`
	Ops       int     `json:"timed_operations"`
	AllocMB   float64 `json:"alloc_mb"`
	Mallocs   float64 `json:"mallocs"`
	Work      float64 `json:"work"`
	Digest    string  `json:"digest"`
	codecMB   float64
	counts    map[string]float64
	traceRoot int
}

// runPass executes one pass of the workload under a fresh passCtx. The
// collector runs first so every pass starts from the same heap state.
func runPass(fn passFunc, ck *checker, tr *tracer) passResult {
	runtime.GC()
	p := &passCtx{ck: ck, dig: newDigest(), tr: tr, counts: map[string]float64{}}
	before := readEngineCounters()
	p.root = tr.begin("bench", "pass", 0)
	fn(p)
	tr.end(p.root)
	for i, v := range readEngineCounters() {
		p.counts[engineCounters[i].metric] += float64(v - before[i])
	}
	return passResult{
		WallS:     p.wall.Seconds(),
		Ops:       p.ops,
		AllocMB:   float64(p.alloc) / 1e6,
		Mallocs:   float64(p.mallocs),
		Work:      p.work,
		Digest:    p.dig.sum(),
		codecMB:   p.codecMB,
		counts:    p.counts,
		traceRoot: p.root,
	}
}

// median returns the median of vs (mean of the two middle values for an
// even count); NaN for none.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of vs the way Python's
// statistics.quantiles(vs, n=4) does (exclusive method), which is how the
// benchmark's spreads are defined. It needs at least two values.
func quartiles(vs []float64) (q1, q3 float64) {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	at := func(i int) float64 { // i-th of 4 cut points
		pos := float64(i) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return at(1), at(3)
}

// spread is the interquartile distance of vs as a share of their median; 0
// below two values.
func spread(vs []float64) float64 {
	if len(vs) < 2 {
		return 0
	}
	q1, q3 := quartiles(vs)
	m := median(vs)
	if m == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / m)
}

func minMax(vs []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, v := range vs {
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return lo, hi
}

// medianSeconds calls fn reps times and returns the median duration of one
// call, in seconds.
func medianSeconds(reps int, fn func()) float64 {
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		fn()
		ds[i] = time.Since(t0).Seconds()
	}
	return median(ds)
}

// allocOf returns the bytes and objects fn allocates.
func allocOf(fn func()) (bytes, mallocs float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	fn()
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc - m0.TotalAlloc), float64(m1.Mallocs - m0.Mallocs)
}

// peakRSSMB reads the process's resident-set high-water mark; 0 where
// /proc is unavailable.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0
			}
			return kb * 1024 / 1e6
		}
	}
	return 0
}
