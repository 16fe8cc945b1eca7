// Package lint is a self-contained static-analysis framework for the
// mlec codebase, modeled on golang.org/x/tools/go/analysis but built
// entirely on the standard library's go/ast, go/parser and go/types so
// the repository stays dependency-free.
//
// The framework exists because the paper's results are Monte-Carlo
// estimates whose reproducibility depends on disciplined RNG seeding
// and data-race-free worker pools. Those properties were previously
// enforced only by convention (comments pairing a mutex with an RNG
// field, worker pools that happen to pass loop variables as
// parameters); the analyzers in this package turn the conventions into
// machine-checked invariants run by cmd/mlecvet and `make check`.
//
// # Suppressing a finding
//
// A diagnostic can be suppressed at a specific site with a directive
// comment on the flagged line or on the line directly above it:
//
//	//lint:allow <analyzer> <reason>
//
// The reason is mandatory: an allowlisted site is a reviewed claim that
// the flagged pattern is intentional (an exact-arithmetic comparison, a
// kernel precondition panic), and the reason is where that review
// lives.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// An Analyzer describes one analysis pass: a named checker with a
// documented rationale and a Run function executed once per package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:allow directives. Lower-case, no spaces.
	Name string
	// Doc is a short description shown by `mlecvet -list`.
	Doc string
	// Run inspects one package and reports findings via pass.Report.
	Run func(pass *Pass) error
}

// A Pass provides one analyzer with the parsed and type-checked package
// under inspection plus a sink for diagnostics.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's parsed non-test source files, with
	// comments attached.
	Files []*ast.File
	// Pkg is the type-checked package object.
	Pkg *types.Package
	// Info carries the full types.Info (Defs, Uses, Types,
	// Selections, Scopes) for the files.
	Info *types.Info
	// Facts resolves cross-package taint summaries for the dataflow
	// analyzers (see facts.go). Shared across all passes of one Run.
	Facts *Facts

	pkg  *Package
	diag *[]Diagnostic
}

// Report records a finding at pos unless the site carries a matching
// //lint:allow directive.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.pkg.allowed(p.Analyzer.Name, position) {
		return
	}
	*p.diag = append(*p.diag, Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding: a position, the analyzer that produced
// it, and a message.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Run executes every analyzer over every package and returns the
// combined findings sorted by file position. When hotbce or hotinline
// is among the analyzers, Run first compiles the hot packages with
// the compiler's diagnostics on (oracle.go); a failed build is an
// error.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	facts := NewFacts(pkgs)
	if slices.ContainsFunc(analyzers, func(a *Analyzer) bool { return a == HotBCE || a == HotInline }) {
		c, err := compileHot(pkgs, facts)
		if err != nil {
			return nil, err
		}
		facts.compiled = c
	}
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				Facts:    facts,
				pkg:      pkg,
				diag:     &diags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// All returns every analyzer in the suite, in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		SharedRNG,
		GlobalRand,
		FloatEq,
		NakedPanic,
		WaitGroupCapture,
		BareGo,
		MapOrder,
		WallTime,
		CtxPoll,
		ProbMix,
		Cancel,
		ErrFlow,
		HotAlloc,
		HotBCE,
		HotInline,
		Lockcheck,
		AtomicMix,
		GoLeak,
	}
}

// ByName resolves a comma-separated analyzer list against All,
// rejecting unknown names.
func ByName(names string) ([]*Analyzer, error) {
	if names == "" {
		return All(), nil
	}
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}
