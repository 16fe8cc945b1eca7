// Package repair implements the paper's four local-pool repair methods
// (Section 2.4) and quantifies their cross-rack network traffic (Figure 8)
// and repair time (Figure 9) for a catastrophic local pool failure.
//
//	R_ALL — rebuild the entire local pool over the network; needs no
//	        cross-level visibility (black-box RBODs).
//	R_FCO — rebuild only the failed chunks over the network; needs the
//	        local level to report failed-chunk lists.
//	R_HYB — rebuild only lost local stripes over the network; repair the
//	        locally-recoverable remainder locally.
//	R_MIN — stage 1 rebuilds just enough chunks (f−pl per lost stripe)
//	        over the network to make every stripe locally recoverable;
//	        stage 2 finishes locally.
//
// The methods differ in one rule, written once here: how many of a
// damaged local stripe's lost chunks the network stage rebuilds
// (Method.NetworkChunks), and whether the method can see inside the pool
// at all (Method.Blind). The analytic model below, the full-system
// simulator (syssim) and the byte-accurate cluster all apply it.
//
// Accounting: every byte reconstructed over the network costs kn reads
// from other racks plus 1 write, i.e. (kn+1)× the repaired volume in
// cross-rack traffic, consistent with the R_ALL/Table 2 derivations in
// bwmodel.
package repair

import (
	"errors"
	"fmt"
	"sort"

	"mlec/internal/bwmodel"
	"mlec/internal/mathx"
	"mlec/internal/placement"
)

// ErrUnknownMethod is returned when a Method value is outside the four
// defined repair methods.
var ErrUnknownMethod = errors.New("repair: unknown method")

// Method enumerates the four repair methods.
type Method int

const (
	RAll Method = iota
	RFCO
	RHYB
	RMin
)

// String renders the paper's labels.
func (m Method) String() string {
	switch m {
	case RAll:
		return "R_ALL"
	case RFCO:
		return "R_FCO"
	case RHYB:
		return "R_HYB"
	case RMin:
		return "R_MIN"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// Validate returns an error wrapping ErrUnknownMethod for a Method
// outside the four defined repair methods.
func (m Method) Validate() error {
	if m < RAll || m > RMin {
		return fmt.Errorf("%w: %v", ErrUnknownMethod, m)
	}
	return nil
}

// Blind reports whether the method cannot see inside a catastrophic
// pool, which only R_ALL cannot: it rebuilds every stripe of the pool
// whole, and the network level counts the whole pool as lost until it
// finishes.
func (m Method) Blind() bool { return m == RAll }

// NetworkChunks returns how many of a damaged local stripe's lost
// chunks the network stage rebuilds, given its lost chunks and the local
// parity pl; local repair rebuilds the rest. The network stage takes the
// lowest chunk indices first, so R_MIN's share is data chunks: a stripe
// loses at most pl parity chunks.
func (m Method) NetworkChunks(lost, pl int) int {
	switch m {
	case RHYB: // lost stripes whole, the rest locally
		if lost > pl {
			return lost
		}
		return 0
	case RMin: // just enough to leave pl losses to local repair
		return max(lost-pl, 0)
	default: // R_ALL, R_FCO: every lost chunk
		return lost
	}
}

// AllMethods lists the methods in the paper's presentation order.
var AllMethods = []Method{RAll, RFCO, RHYB, RMin}

// StripeProfile describes the failure state of one local pool as the
// number of local stripes having exactly j failed chunks, for j ≥ 1.
// Counts are float64 because analytic profiles are expectations.
type StripeProfile map[int]float64

// sortedFailureCounts returns the profile's failure counts j in
// ascending order. Expectation sums iterate this instead of the map so
// float accumulation order — and with it the last ULP of every derived
// statistic — is identical run to run.
func (p StripeProfile) sortedFailureCounts() []int {
	js := make([]int, 0, len(p))
	for j := range p {
		js = append(js, j)
	}
	sort.Ints(js)
	return js
}

// BurstProfile returns the stripe profile of a local pool that just lost
// `failed` disks simultaneously (the paper's catastrophic-failure
// injection: failed = pl+1).
//
// Clustered pools: every stripe spans all pool disks, so every stripe has
// exactly `failed` failed chunks. Declustered pools: a stripe's failed
// chunk count is hypergeometric over the pool.
func BurstProfile(l *placement.Layout, failed int) StripeProfile {
	prof := StripeProfile{}
	stripes := l.LocalStripesPerPool()
	w := l.Params.LocalWidth()
	if l.Scheme.Local == placement.Clustered {
		if failed > 0 {
			j := failed
			if j > w {
				j = w
			}
			prof[j] = stripes
		}
		return prof
	}
	d := l.LocalPoolSize()
	for j := 1; j <= failed && j <= w; j++ {
		if n := stripes * mathx.HypergeomPMF(j, failed, d, w); n > 0 {
			prof[j] = n
		}
	}
	return prof
}

// Analysis holds the per-method cost breakdown for repairing one
// catastrophic local pool.
type Analysis struct {
	Method Method
	Scheme placement.Scheme

	// NetworkRepairBytes is the volume reconstructed via network-level
	// parity computation.
	NetworkRepairBytes float64
	// LocalRepairBytes is the volume reconstructed via local parities.
	LocalRepairBytes float64
	// CrossRackTrafficBytes = NetworkRepairBytes × (kn+1).
	CrossRackTrafficBytes float64
	// NetworkRepairHours and LocalRepairHours are the two repair stages'
	// durations; TotalHours is their sum (the stages are sequential:
	// local repair needs the network stage's output).
	NetworkRepairHours float64
	LocalRepairHours   float64
	TotalHours         float64
}

// Analyzer evaluates repair methods for one layout.
type Analyzer struct {
	Layout *placement.Layout
	Model  *bwmodel.Model
}

// NewAnalyzer returns an analyzer over the layout.
func NewAnalyzer(l *placement.Layout) *Analyzer {
	return &Analyzer{Layout: l, Model: bwmodel.New(l)}
}

// AnalyzeBurst evaluates a method against the paper's catastrophic
// injection: pl+1 simultaneous disk failures in one local pool.
func (a *Analyzer) AnalyzeBurst(m Method) (Analysis, error) {
	failed := a.Layout.Params.PL + 1
	return a.AnalyzeProfile(m, failed, BurstProfile(a.Layout, failed))
}

// AnalyzeProfile evaluates a method against an arbitrary pool failure
// state: `failedDisks` disks down with the given stripe profile. It
// returns ErrUnknownMethod for a Method outside the defined four.
func (a *Analyzer) AnalyzeProfile(m Method, failedDisks int, prof StripeProfile) (Analysis, error) {
	if err := m.Validate(); err != nil {
		return Analysis{}, err
	}
	l := a.Layout
	chunk := l.Topo.ChunkSizeBytes

	var netBytes, locBytes float64
	if m.Blind() {
		// Rebuild the whole pool regardless of what actually failed.
		netBytes = l.LocalPoolDataBytes()
	} else {
		for _, j := range prof.sortedFailureCounts() {
			n := m.NetworkChunks(j, l.Params.PL)
			netBytes += prof[j] * float64(n) * chunk
			locBytes += prof[j] * float64(j-n) * chunk
		}
	}

	netBW := a.Model.PoolRepairBandwidth()
	locBW := a.Model.DegradedPoolRepairBandwidth(failedDisks)
	an := Analysis{
		Method:                m,
		Scheme:                l.Scheme,
		NetworkRepairBytes:    netBytes,
		LocalRepairBytes:      locBytes,
		CrossRackTrafficBytes: netBytes * float64(l.Params.KN+1),
		NetworkRepairHours:    netBytes / netBW / 3600,
	}
	if locBytes > 0 {
		an.LocalRepairHours = locBytes / locBW / 3600
	}
	an.TotalHours = an.NetworkRepairHours + an.LocalRepairHours
	return an, nil
}

// CatastrophicWindowHours returns the duration for which the pool remains
// in the catastrophic (locally-unrecoverable) state under each method —
// the exposure window that drives network-level durability (Section
// 4.2.3). The pool exits the catastrophic state as soon as the network
// stage has restored every lost stripe to ≤ pl failures, so for R_HYB and
// R_MIN this is just the network stage; for R_ALL and R_FCO the pool is
// exposed until the network repair finishes.
func (a *Analyzer) CatastrophicWindowHours(m Method) (float64, error) {
	an, err := a.AnalyzeBurst(m)
	if err != nil {
		return 0, err
	}
	return an.NetworkRepairHours, nil
}
