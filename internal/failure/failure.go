// Package failure provides the disk-failure sources used by the
// simulators: exponential arrivals parameterized by annual failure rate
// (the paper's long-term durability setup), Weibull arrivals (bathtub-ish
// wearout studies), and replayable failure traces — the synthetic stand-in
// for the operational traces referenced in the paper (§3 "based on
// distributions, rules, or real traces").
package failure

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// DefaultDetectionDelayHours is the paper's 30-minute failure detection
// time (§3).
const DefaultDetectionDelayHours = 0.5

// HoursPerYear converts AFR-style annual rates to the simulator's hour
// clock.
const HoursPerYear = 8760.0

// TTFDistribution samples times-to-failure in hours.
type TTFDistribution interface {
	// Sample draws a time-to-failure in hours using the provided RNG.
	Sample(rng *rand.Rand) float64
	// MeanHours returns the distribution mean, used by analytic models.
	MeanHours() float64
}

// Exponential is a memoryless TTF distribution specified by annual
// failure rate: P(fail within a year) = AFR.
type Exponential struct {
	// RatePerHour is the hazard rate λ.
	RatePerHour float64
}

// DefaultAFR is the paper's annual disk failure rate, 1 %.
const DefaultAFR = 0.01

// ResolveAFR applies the options convention shared by the library entry
// points: an AFR of 0 means "unset" and resolves to DefaultAFR; any
// other value outside (0,1), NaN included, is an error rather than a
// silent substitution.
func ResolveAFR(afr float64) (float64, error) {
	if afr == 0 {
		return DefaultAFR, nil
	}
	if !(afr > 0 && afr < 1) {
		return 0, fmt.Errorf("failure: AFR %g outside (0,1)", afr)
	}
	return afr, nil
}

// NewExponentialAFR converts an annual failure rate (e.g. 0.01 for 1%)
// into an exponential TTF distribution with λ = −ln(1−AFR)/8760.
func NewExponentialAFR(afr float64) (Exponential, error) {
	if !(afr > 0 && afr < 1) {
		return Exponential{}, fmt.Errorf("failure: AFR %g outside (0,1)", afr)
	}
	return Exponential{RatePerHour: -math.Log1p(-afr) / HoursPerYear}, nil
}

// MustExponentialAFR is NewExponentialAFR but panics on error.
func MustExponentialAFR(afr float64) Exponential {
	d, err := NewExponentialAFR(afr)
	if err != nil {
		panic(err)
	}
	return d
}

// AFR returns the implied annual failure rate.
func (e Exponential) AFR() float64 { return -math.Expm1(-e.RatePerHour * HoursPerYear) }

// Sample implements TTFDistribution.
func (e Exponential) Sample(rng *rand.Rand) float64 { return rng.ExpFloat64() / e.RatePerHour }

// MeanHours implements TTFDistribution.
func (e Exponential) MeanHours() float64 { return 1 / e.RatePerHour }

// Weibull is a TTF distribution with shape k and scale λ (hours):
// shape < 1 models infant mortality, > 1 models wearout.
type Weibull struct {
	Shape, ScaleHours float64
}

// Sample implements TTFDistribution via inverse-CDF.
func (w Weibull) Sample(rng *rand.Rand) float64 {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return w.ScaleHours * math.Pow(-math.Log(u), 1/w.Shape)
}

// MeanHours implements TTFDistribution: λ·Γ(1+1/k).
func (w Weibull) MeanHours() float64 {
	g, _ := math.Lgamma(1 + 1/w.Shape)
	return w.ScaleHours * math.Exp(g)
}

// Event is one failure in a trace.
type Event struct {
	Disk      int     // flat disk index
	TimeHours float64 // failure time since trace start
}

// Trace is a time-ordered list of disk failures.
type Trace struct {
	Events []Event
}

// Sorted reports whether events are in non-decreasing time order.
func (t *Trace) Sorted() bool {
	return sort.SliceIsSorted(t.Events, func(i, j int) bool {
		return t.Events[i].TimeHours < t.Events[j].TimeHours
	})
}

// Sort orders events by time.
func (t *Trace) Sort() {
	sort.Slice(t.Events, func(i, j int) bool {
		return t.Events[i].TimeHours < t.Events[j].TimeHours
	})
}

// GenerateTrace synthesizes a failure trace for `disks` disks over
// `years` years, drawing failure times from dist (each disk fails at most
// once per generated life; replacements re-enter with a fresh draw).
func GenerateTrace(disks int, years float64, dist TTFDistribution, seed int64) *Trace {
	rng := rand.New(rand.NewSource(seed))
	horizon := years * HoursPerYear
	tr := &Trace{}
	for d := 0; d < disks; d++ {
		t := dist.Sample(rng)
		for t < horizon {
			tr.Events = append(tr.Events, Event{Disk: d, TimeHours: t})
			t += dist.Sample(rng)
		}
	}
	tr.Sort()
	return tr
}

// WriteTo serializes the trace as "disk,timeHours" lines.
func (t *Trace) WriteTo(w io.Writer) (int64, error) {
	var n int64
	bw := bufio.NewWriter(w)
	for _, e := range t.Events {
		c, err := fmt.Fprintf(bw, "%d,%.6f\n", e.Disk, e.TimeHours)
		n += int64(c)
		if err != nil {
			return n, err
		}
	}
	return n, bw.Flush()
}

// ParseTrace reads the WriteTo format. Blank lines and lines starting
// with '#' are ignored.
func ParseTrace(r io.Reader) (*Trace, error) {
	tr := &Trace{}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.Split(line, ",")
		if len(parts) != 2 {
			return nil, fmt.Errorf("failure: trace line %d: want 'disk,timeHours', got %q", lineNo, line)
		}
		disk, err := strconv.Atoi(strings.TrimSpace(parts[0]))
		if err != nil {
			return nil, fmt.Errorf("failure: trace line %d: bad disk: %w", lineNo, err)
		}
		tm, err := strconv.ParseFloat(strings.TrimSpace(parts[1]), 64)
		if err != nil {
			return nil, fmt.Errorf("failure: trace line %d: bad time: %w", lineNo, err)
		}
		// ParseFloat happily returns NaN and ±Inf for "NaN"/"Inf"
		// spellings, and NaN also slips through the tm < 0 check below
		// (every NaN comparison is false) — reject non-finite times
		// explicitly before they poison the event queue.
		if math.IsNaN(tm) || math.IsInf(tm, 0) {
			return nil, fmt.Errorf("failure: trace line %d: non-finite time %q", lineNo, strings.TrimSpace(parts[1]))
		}
		if disk < 0 || tm < 0 {
			return nil, fmt.Errorf("failure: trace line %d: negative field", lineNo)
		}
		tr.Events = append(tr.Events, Event{Disk: disk, TimeHours: tm})
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !tr.Sorted() {
		tr.Sort()
	}
	return tr, nil
}
