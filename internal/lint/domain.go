package lint

import (
	"go/token"
	"go/types"
	"strings"
)

// Domain is the probflow abstract numeric domain: which measurement
// scale a floating-point value lives on. Every headline number this
// repository reproduces is a rare-event probability, and the bug class
// the domain analysis targets — adding a log-domain value to a linear
// one, comparing a rate against a probability, computing 1−p for p≪1 —
// silently destroys all significant digits while every tolerance-based
// test still passes. The lattice is flat: DomNone (no information) at
// the bottom, the concrete domains in the middle, DomMixed (values from
// conflicting domains met on different paths) on top.
type Domain uint8

const (
	// DomNone carries no information: literals, unclassified values.
	DomNone Domain = iota
	// DomProb is a linear-domain probability or fraction in [0,1]
	// (PDL, φ, tail probabilities, PMF values).
	DomProb
	// DomLogProb is a log-domain value: ln p, log-binomials, log
	// factorials — anything that must pass through math.Exp before it
	// can meet a linear probability.
	DomLogProb
	// DomRate is an event rate (per hour in this module): λ, μ,
	// catastrophic-pool rates, loss rates.
	DomRate
	// DomCount is an exact count: device counts, stripe counts, loop
	// indices. All integer-typed values are counts.
	DomCount
	// DomWeight is a splitting-estimator stage weight or other
	// importance weight.
	DomWeight
	// DomMixed is the lattice top: conflicting domains joined on
	// different control-flow paths. Analyzers never report on it.
	DomMixed
)

func (d Domain) String() string {
	switch d {
	case DomProb:
		return "prob"
	case DomLogProb:
		return "logprob"
	case DomRate:
		return "rate"
	case DomCount:
		return "count"
	case DomWeight:
		return "weight"
	case DomMixed:
		return "mixed"
	}
	return "none"
}

// parseDomain resolves a //mlec:unit argument. The accepted spellings
// are the String values above (DomNone and DomMixed are not
// annotatable: an annotation exists to assert a concrete domain).
func parseDomain(s string) (Domain, bool) {
	switch s {
	case "prob", "probability":
		return DomProb, true
	case "logprob", "log-prob":
		return DomLogProb, true
	case "rate":
		return DomRate, true
	case "count":
		return DomCount, true
	case "weight":
		return DomWeight, true
	}
	return DomNone, false
}

// DomVal is the dataflow lattice value: the domain plus a provenance
// bit recording that the value passed through math.Exp. A linear
// probability recovered from log space can be arbitrarily close to 0
// or 1, which is exactly when 1−x cancels catastrophically; the cancel
// analyzer keys on this bit.
type DomVal struct {
	D      Domain
	ViaExp bool
}

// joinDom joins two domains: equal stays, None yields the other,
// conflicting concrete domains go to Mixed.
func joinDom(a, b Domain) Domain {
	switch {
	case a == b:
		return a
	case a == DomNone:
		return b
	case b == DomNone:
		return a
	}
	return DomMixed
}

// join is the lattice join used at control-flow merges.
func (v DomVal) join(w DomVal) DomVal {
	return DomVal{D: joinDom(v.D, w.D), ViaExp: v.ViaExp || w.ViaExp}
}

// domainFromName classifies an identifier by its name, the cheapest and
// highest-yield seed: this module (like the reliability literature it
// reproduces) names probabilities p/q/φ/ψ/PDL, rates λ/μ/β, and
// log-domain values with a log/ln prefix. The name is split into
// lower-cased camelCase/snake_case tokens; the first rule whose token
// set matches wins. Log-domain wins over probability so that logPDL is
// LogProb, not Prob.
func domainFromName(name string) Domain {
	switch name {
	case "lp", "lq", "lg", "ll":
		// Conventional short names for log-domain locals (mathx).
		return DomLogProb
	}
	toks := nameTokens(name)
	has := func(want ...string) bool {
		for _, t := range toks {
			for _, w := range want {
				if t == w {
					return true
				}
			}
		}
		return false
	}
	switch {
	case has("log", "ln"):
		return DomLogProb
	case has("p", "q", "prob", "probability", "pdl", "pmf", "cdf", "tail", "phi", "psi", "frac", "fraction"):
		return DomProb
	case has("rate", "lambda", "mu", "beta", "freq", "intensity"):
		return DomRate
	case has("weight", "wt"):
		return DomWeight
	case has("count", "total"):
		return DomCount
	}
	return DomNone
}

// nameTokens splits an identifier into lower-cased tokens at underscores
// and camelCase boundaries: "CatRatePerPoolHour" → [cat rate per pool
// hour], "logP" → [log p].
func nameTokens(name string) []string {
	var toks []string
	var cur strings.Builder
	flush := func() {
		if cur.Len() > 0 {
			toks = append(toks, strings.ToLower(cur.String()))
			cur.Reset()
		}
	}
	runes := []rune(name)
	for i, r := range runes {
		switch {
		case r == '_':
			flush()
		case r >= 'A' && r <= 'Z':
			// Boundary before an upper-case rune, except inside an
			// acronym run (PDL): split when the previous rune is lower
			// or the next one is.
			if i > 0 && (isLower(runes[i-1]) || (i+1 < len(runes) && isLower(runes[i+1]))) {
				flush()
			}
			cur.WriteRune(r)
		default:
			cur.WriteRune(r)
		}
	}
	flush()
	return toks
}

func isLower(r rune) bool { return r >= 'a' && r <= 'z' }

// unitIndex resolves //mlec:unit annotations by file and line, merged
// across every package the fact store indexed.
type unitIndex map[string]map[int]Domain

// at returns the domain annotated at pos's line or the line directly
// above it (mirroring //lint:allow placement).
func (u unitIndex) at(pos token.Position) (Domain, bool) {
	lines := u[pos.Filename]
	if lines == nil {
		return DomNone, false
	}
	if d, ok := lines[pos.Line]; ok {
		return d, true
	}
	d, ok := lines[pos.Line-1]
	return d, ok
}

// seedObject returns the declared domain of a named object: an
// //mlec:unit annotation at its declaration site wins, then the name
// heuristic (floating-point objects only), then the integer-type rule
// (every integer is a count). Objects of other types carry no domain.
func seedObject(units unitIndex, fset *token.FileSet, obj types.Object) DomVal {
	if obj == nil {
		return DomVal{}
	}
	t := obj.Type()
	if isIntegerType(t) {
		// An annotation may still refine an integer (e.g. a count used
		// as a weight), but the default is Count.
		if units != nil && obj.Pos().IsValid() {
			if d, ok := units.at(fset.Position(obj.Pos())); ok {
				return DomVal{D: d}
			}
		}
		return DomVal{D: DomCount}
	}
	if !isFloat(t) {
		return DomVal{}
	}
	if units != nil && obj.Pos().IsValid() {
		if d, ok := units.at(fset.Position(obj.Pos())); ok {
			return DomVal{D: d}
		}
	}
	return DomVal{D: domainFromName(obj.Name())}
}

// isIntegerType reports whether t's underlying type is an integer.
func isIntegerType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// parseUnitDirective parses one comment's text as a //mlec:unit
// directive, mirroring parseAllowDirective: isDirective reports the
// prefix matched, ok that a recognized domain followed. Trailing text
// after the domain is ignored (room for a rationale).
func parseUnitDirective(text string) (d Domain, isDirective, ok bool) {
	rest, found := strings.CutPrefix(text, "//mlec:unit")
	if !found {
		return DomNone, false, false
	}
	fields := strings.Fields(rest)
	if len(fields) == 0 {
		return DomNone, true, false
	}
	d, ok = parseDomain(fields[0])
	return d, true, ok
}
