// Package unitmix is the probmix analyzer's fixture ported to the unit
// types, plus the mathx.Choose mix that analyzer once reported.
// TestUnitMixesDoNotCompile type-checks it against mathx: every line
// with a want comment must hold exactly one type error matching it, and
// no other line may hold one.
package unitmix

import (
	"math"

	"mlec/internal/mathx"
)

// mixDirect adds a log-domain value to a linear probability.
func mixDirect(pdl mathx.Prob) float64 {
	logP := math.Log(float64(pdl))
	return logP + pdl // want `mismatched types float64 and mathx.Prob`
}

// mixThroughHelper mixes through a helper's log-domain result.
func logOf(p mathx.Prob) float64 {
	return math.Log(float64(p))
}

func mixThroughHelper(pdl mathx.Prob) float64 {
	v := logOf(pdl)
	return v + pdl // want `mismatched types float64 and mathx.Prob`
}

// compareRateProb compares values from different scales.
func compareRateProb(ratePerHour mathx.Rate, pdl mathx.Prob) bool {
	return ratePerHour > pdl // want `mismatched types mathx.Rate and mathx.Prob`
}

// mixCountProb adds a count to a probability.
func mixCountProb(pdl mathx.Prob, disks int) float64 {
	return float64(disks) + pdl // want `mismatched types float64 and mathx.Prob`
}

// floorValue is a log-domain floor.
var floorValue = -700.0

func mixFloor(p mathx.Prob) float64 {
	return floorValue + p // want `mismatched types float64 and mathx.Prob`
}

// result exercises typed fields.
type result struct {
	AnnualPDL mathx.Prob
	Arrival   mathx.Rate
}

func fillBad(pdl mathx.Prob) result {
	r := result{AnnualPDL: pdl}
	r.Arrival = 0
	return result{
		AnnualPDL: pdl,
		Arrival:   pdl, // want `cannot use pdl .* as mathx.Rate value`
	}
}

// assignMismatch stores a probability into a rate variable.
func assignMismatch(pdl mathx.Prob) mathx.Rate {
	var lossRate mathx.Rate
	lossRate = pdl // want `cannot use pdl .* as mathx.Rate value`
	return lossRate
}

// logTailBound returns a linear probability as a log-domain float64.
func logTailBound(pdl mathx.Prob) float64 {
	return pdl * pdl // want `cannot use pdl \* pdl .* as float64 value`
}

// chooseMix adds a binomial coefficient (a count) to a probability, the
// unit confusion at mathx.Choose that probmix once reported.
func chooseMix(n, k int, p mathx.Prob) float64 {
	return mathx.Choose(n, k) + p // want `mismatched types float64 and mathx.Prob`
}

// afrAsRate takes an annual failure rate for a per-hour rate: the
// missing AFR → λ conversion.
func afrAsRate(afr mathx.AFR) mathx.Rate {
	return afr // want `cannot use afr .* as mathx.Rate value`
}

// --- negatives ---

// composeOK multiplies probabilities and scales rates, converting
// operands explicitly.
func composeOK(pdl mathx.Prob, lambdaPerHour mathx.Rate, pools int) mathx.Rate {
	loss := pdl * pdl
	rate := float64(lambdaPerHour) * float64(pools)
	return mathx.Rate(rate * float64(loss))
}

// productFromLogs stays in log domain until the final exp.
func productFromLogs(lp, lq float64) mathx.Prob {
	return mathx.Prob(math.Exp(lp + lq))
}

// sameUnitOK adds and compares within one unit.
func sameUnitOK(pHi, pLo mathx.Prob) bool {
	return pHi+pLo > pLo
}

// unknownOK mixes plain float64 values freely.
func unknownOK(hours, window float64) float64 {
	return hours + window
}

// conversionsOK takes the named conversions.
func conversionsOK(afr mathx.AFR) (mathx.Prob, mathx.Rate, float64) {
	return afr.LinearPerHour().AnnualPDL(), afr.PerHour(), mathx.Nines(afr.PerHour().AnnualPDL())
}
