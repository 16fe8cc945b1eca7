// Command mlecvet runs the repository's domain-specific static
// analyzers (internal/lint) over the given packages, in the style of a
// go/analysis multichecker. It is wired into `make check` and CI next
// to `go vet` and `go test -race`.
//
// Usage:
//
//	mlecvet [-only name,name] [-json] [-list] [-baseline file]
//	        [-write-baseline] [-race-oracle] [-timeout D] [patterns...]
//
// Patterns default to ./... and support ./dir and ./dir/... forms
// rooted at the module. The exit status is 0 when the tree is clean, 1
// when any analyzer reports a finding, 2 on usage or load errors.
//
// hotbce and hotinline take their verdicts from the compiler: when
// either runs, mlecvet first builds the packages holding //mlec:hot code
// with -gcflags='-d=ssa/check_bce -m=2' against the normal build cache
// (a first run compiles them; later runs replay the cached diagnostics)
// and a failed build exits 2.
//
// With -race-oracle, mlecvet runs the race-detector oracle: the
// concurrency analyzers (lockcheck, atomicmix, goleak, waitgroupcapture)
// sweep the tree, a stress harness is generated for every
// //mlec:guardedby annotation, and the annotated packages' test suites
// run under `go test -race` in a throwaway GOCACHE. Every observed
// data race must touch a file carrying a concurrency finding;
// unexplained races are printed to stdout and fail the run with exit
// status 1 (see internal/lint/raceoracle.go for the protocol).
//
// With -baseline, the exit status ratchets instead: the run fails only
// when some analyzer reports more findings than the committed baseline
// allows, so a new analyzer can land with a non-zero debt that may
// shrink but never grow. When a count falls below the baseline the run
// stays green and suggests regenerating with -write-baseline, which
// rewrites the file with the current counts of every analyzer (so it
// refuses -only).
//
// With -json, findings are emitted to stdout as a single JSON document
// (schema below) instead of line-oriented text, so CI can archive and
// post-process them. The exit-status contract is unchanged.
//
//	{
//	  "findings": [{"file": ..., "line": ..., "column": ...,
//	                "analyzer": ..., "message": ...}, ...],
//	  "malformed_directives": [{"file": ..., "line": ..., "column": ...}]
//	}
//
// Findings are suppressed site-by-site with a directive on the flagged
// line or the line above:
//
//	//lint:allow <analyzer> <reason>
//
// Both fields are mandatory; malformed directives are themselves
// reported.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"os"
	"sort"

	"mlec/internal/faultinject"
	"mlec/internal/lint"
	"mlec/internal/runctl"
)

// jsonPos is a token.Position without the Offset field, keyed the way CI
// consumers expect.
type jsonPos struct {
	File   string `json:"file"`
	Line   int    `json:"line"`
	Column int    `json:"column"`
}

func toJSONPos(p token.Position) jsonPos {
	return jsonPos{File: p.Filename, Line: p.Line, Column: p.Column}
}

type jsonFinding struct {
	jsonPos
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// jsonReport is the -json document. Slices are always non-nil so a
// clean run serializes as empty arrays, not null.
type jsonReport struct {
	Findings            []jsonFinding `json:"findings"`
	MalformedDirectives []jsonPos     `json:"malformed_directives"`
}

func main() {
	only := flag.String("only", "", "comma-separated analyzer subset (default: all)")
	jsonOut := flag.Bool("json", false, "emit findings as a JSON document on stdout")
	list := flag.Bool("list", false, "list available analyzers and exit")
	baseline := flag.String("baseline", "", "baseline JSON file: fail only when an analyzer's finding count rises above it")
	writeBaseline := flag.Bool("write-baseline", false, "rewrite the -baseline file with the current finding counts")
	raceOracle := flag.Bool("race-oracle", false, "cross-check concurrency findings against `go test -race` plus the //mlec:guardedby stress harness")
	timeout := flag.Duration("timeout", 0, "wall-clock budget for loading and analysis (0 = none)")
	chaosFlags := faultinject.BindCLIFlags(flag.CommandLine)
	flag.Parse()

	if *writeBaseline && *baseline == "" {
		fmt.Fprintln(os.Stderr, "mlecvet: -write-baseline needs -baseline to name the file")
		os.Exit(2)
	}
	if *writeBaseline && *only != "" {
		// The file is rewritten from the counts of the analyzers that
		// ran; with -only every other analyzer's key would be dropped.
		fmt.Fprintln(os.Stderr, "mlecvet: -write-baseline rewrites every analyzer's count and cannot run with -only")
		os.Exit(2)
	}

	stopChaos, err := chaosFlags.Activate(os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mlecvet:", err)
		os.Exit(2)
	}
	defer stopChaos()

	ctx, stop := runctl.CLIContext(*timeout)
	defer stop()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-18s %s\n", a.Name, a.Doc)
		}
		return
	}

	selected, err := lint.ByName(*only)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mlecvet:", err)
		os.Exit(2)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := lint.NewLoader(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "mlecvet:", err)
		os.Exit(2)
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mlecvet:", err)
		os.Exit(2)
	}

	if *raceOracle {
		os.Exit(runRaceOracle(ctx, pkgs))
	}

	type runResult struct {
		diags []lint.Diagnostic
		err   error
	}
	resc := make(chan runResult, 1)
	go func() {
		diags, err := lint.Run(pkgs, selected)
		resc <- runResult{diags, err}
	}()
	var diags []lint.Diagnostic
	select {
	case r := <-resc:
		if r.err != nil {
			fmt.Fprintln(os.Stderr, "mlecvet:", r.err)
			os.Exit(2)
		}
		diags = r.diags
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "mlecvet:", ctx.Err())
		os.Exit(2)
	}
	report := buildReport(pkgs, diags)
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			fmt.Fprintln(os.Stderr, "mlecvet:", err)
			os.Exit(2)
		}
	} else {
		for _, pkg := range pkgs {
			for _, e := range pkg.Malformed {
				fmt.Printf("%s: directive: %s\n", e.Pos, e.Msg)
			}
		}
		for _, d := range diags {
			fmt.Println(d)
		}
	}

	counts := make(map[string]int)
	for _, a := range selected {
		counts[a.Name] = 0
	}
	for _, d := range diags {
		counts[d.Analyzer]++
	}
	if *writeBaseline {
		if err := saveBaseline(*baseline, counts); err != nil {
			fmt.Fprintln(os.Stderr, "mlecvet:", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "mlecvet: wrote %s\n", *baseline)
		return
	}

	fail := len(report.MalformedDirectives) > 0
	if *baseline != "" {
		base, err := loadBaseline(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mlecvet:", err)
			os.Exit(2)
		}
		names := make([]string, 0, len(counts))
		for name := range counts {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			got, allowed := counts[name], base[name]
			switch {
			case got > allowed:
				fmt.Fprintf(os.Stderr, "mlecvet: %s: %d findings exceed the baseline of %d\n",
					name, got, allowed)
				fail = true
			case got < allowed:
				fmt.Fprintf(os.Stderr,
					"mlecvet: %s: %d findings, below the baseline of %d; ratchet down with -baseline %s -write-baseline\n",
					name, got, allowed, *baseline)
			}
		}
	} else if len(report.Findings) > 0 {
		fail = true
	}
	if fail {
		os.Exit(1)
	}
}

// buildReport assembles the -json document. lint.Run already orders
// findings by (file, line, column, analyzer); the sort here re-asserts
// that contract defensively and extends it to the malformed-directive
// list, which is collected per package and would otherwise leak load
// order into the output CI diffs against.
func buildReport(pkgs []*lint.Package, diags []lint.Diagnostic) jsonReport {
	report := jsonReport{
		Findings:            []jsonFinding{},
		MalformedDirectives: []jsonPos{},
	}
	for _, pkg := range pkgs {
		for _, e := range pkg.Malformed {
			report.MalformedDirectives = append(report.MalformedDirectives, toJSONPos(e.Pos))
		}
	}
	for _, d := range diags {
		report.Findings = append(report.Findings, jsonFinding{
			jsonPos:  toJSONPos(d.Pos),
			Analyzer: d.Analyzer,
			Message:  d.Message,
		})
	}
	sort.Slice(report.Findings, func(i, j int) bool {
		a, b := report.Findings[i], report.Findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Column < b.Column
	})
	sort.Slice(report.MalformedDirectives, func(i, j int) bool {
		a, b := report.MalformedDirectives[i], report.MalformedDirectives[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return report
}

// loadBaseline reads the per-analyzer finding-count ratchet file.
func loadBaseline(path string) (map[string]int, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	base := make(map[string]int)
	if err := json.Unmarshal(data, &base); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return base, nil
}

// saveBaseline writes the ratchet file with stable key order (the
// encoding/json map encoder already sorts keys).
func saveBaseline(path string, counts map[string]int) error {
	data, err := json.MarshalIndent(counts, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
