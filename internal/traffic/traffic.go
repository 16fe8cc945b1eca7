// Package traffic computes long-run expected cross-rack repair network
// traffic — the paper's Sections 5.1.4 and 5.2.4 (described in text, no
// figure): network SLEC needs hundreds of TB of repair traffic per day,
// LRC less (local-group reads), while MLEC needs a few TB per *thousands
// of years* because only catastrophic local pools touch the network.
package traffic

import (
	"fmt"

	"mlec/internal/mathx"
	"mlec/internal/placement"
	"mlec/internal/repair"
	"mlec/internal/topology"
)

// hoursPerDay converts per-hour rates to daily traffic.
const hoursPerDay = 24.0

// failuresPerHour returns the system-wide disk failure arrival rate.
func failuresPerHour(topo topology.Config, lambdaPerHour mathx.Rate) float64 {
	return float64(topo.TotalDisks()) * float64(lambdaPerHour)
}

// NetworkSLECDailyBytes returns the expected cross-rack repair traffic
// per day of a network-placed (k+p) SLEC: every disk failure pulls k
// chunk-reads across racks and writes 1 rebuilt chunk, per repaired byte.
func NetworkSLECDailyBytes(topo topology.Config, params placement.SLECParams, lambdaPerHour mathx.Rate) (float64, error) {
	if params.K <= 0 || params.P < 0 {
		return 0, fmt.Errorf("traffic: bad SLEC params %v", params)
	}
	perFailure := topo.DiskCapacityBytes * float64(params.K+1)
	return failuresPerHour(topo, lambdaPerHour) * hoursPerDay * perFailure, nil
}

// LRCDailyBytes returns the expected cross-rack repair traffic per day of
// an LRC-Dp layout: the dominant single-failure repairs read the k/l
// surviving chunks of the local group and write 1 — all across racks,
// since LRC-Dp scatters every chunk to a distinct rack (§5.2.4).
func LRCDailyBytes(topo topology.Config, params placement.LRCParams, lambdaPerHour mathx.Rate) (float64, error) {
	if params.K <= 0 || params.L <= 0 || params.K%params.L != 0 {
		return 0, fmt.Errorf("traffic: bad LRC params %v", params)
	}
	groupReads := params.K / params.L // group size reads per repaired chunk
	perFailure := topo.DiskCapacityBytes * float64(groupReads+1)
	return failuresPerHour(topo, lambdaPerHour) * hoursPerDay * perFailure, nil
}

// MLECYearlyBytes returns the expected cross-rack repair traffic per YEAR
// of an MLEC system: catastrophic pools arrive at catRatePerPoolHour per
// pool and each costs the repair method's cross-rack traffic. Ordinary
// disk failures repair inside the enclosure and contribute nothing.
func MLECYearlyBytes(l *placement.Layout, method repair.Method, catRatePerPoolHour mathx.Rate) (float64, error) {
	if catRatePerPoolHour < 0 {
		return 0, fmt.Errorf("traffic: negative catastrophic rate")
	}
	an := repair.NewAnalyzer(l)
	burst, err := an.AnalyzeBurst(method)
	if err != nil {
		return 0, err
	}
	eventsPerYear := float64(catRatePerPoolHour) * float64(l.TotalLocalPools()) * mathx.HoursPerYear
	return eventsPerYear * burst.CrossRackTrafficBytes, nil
}

// Comparison is the §5.1.4/§5.2.4 summary table.
type Comparison struct {
	NetworkSLECDaily float64 // bytes/day
	LRCDaily         float64 // bytes/day
	MLECYearly       float64 // bytes/year
	// MLECYearsPerTB reports how many years MLEC takes to generate one
	// TB of cross-rack repair traffic (the "thousands of years" claim).
	MLECYearsPerTB float64
}

// Compare builds the summary for the given configurations.
func Compare(topo topology.Config, slec placement.SLECParams, lrcp placement.LRCParams,
	l *placement.Layout, method repair.Method, lambdaPerHour, catRatePerPoolHour mathx.Rate) (Comparison, error) {
	var c Comparison
	var err error
	if c.NetworkSLECDaily, err = NetworkSLECDailyBytes(topo, slec, lambdaPerHour); err != nil {
		return c, err
	}
	if c.LRCDaily, err = LRCDailyBytes(topo, lrcp, lambdaPerHour); err != nil {
		return c, err
	}
	if c.MLECYearly, err = MLECYearlyBytes(l, method, catRatePerPoolHour); err != nil {
		return c, err
	}
	if c.MLECYearly > 0 {
		c.MLECYearsPerTB = 1e12 / c.MLECYearly
	}
	return c, nil
}
