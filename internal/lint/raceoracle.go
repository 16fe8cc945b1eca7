package lint

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/types"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// This file is the race-detector half of the lock-discipline oracle.
// The static side (lockstate.go and the lockcheck/atomicmix/goleak
// analyzers) claims that every access to //mlec:guardedby state is
// disciplined; the dynamic side runs the package test suites under
// -race, augmented by a generated stress harness that hammers every
// annotated struct, and cross-checks the two: a data race whose stack
// frames touch no file with a concurrency finding means the static
// suite missed a real bug, and the oracle fails.
//
// The direction of the check is deliberate. The race detector only
// observes executed interleavings, so "no race" proves nothing and the
// oracle never demands a race per finding. But every race it does see
// must be explained by a static claim — the same asymmetric contract
// the compiler oracle (oracle.go) applies to bounds checks.

// ConcurrencyAnalyzers returns the analyzers whose findings count as
// explanations for a race-detector report: the lock-discipline,
// atomic-consistency, goroutine-lifecycle and shared-accumulator checks.
func ConcurrencyAnalyzers() []*Analyzer {
	return []*Analyzer{Lockcheck, AtomicMix, GoLeak, WaitGroupCapture}
}

// A RaceReport is one WARNING: DATA RACE block from -race output.
type RaceReport struct {
	// Files lists the distinct source files appearing in the report's
	// stack frames, cleaned, in first-appearance order. Generated
	// stress files and runtime frames are included; the explanation
	// match just needs one overlap with a finding.
	Files []string
	// Raw is the full text of the block, for the failure artifact.
	Raw string
}

// raceFrameRE matches the source line of one goroutine stack frame in a
// race report: an indented "/path/to/file.go:123 +0x44" (the offset is
// absent for some runtime frames).
var raceFrameRE = regexp.MustCompile(`^\s+(\S+\.go):(\d+)`)

// ParseRaceReports scans -race test output and returns one RaceReport
// per "WARNING: DATA RACE" block. Blocks are delimited by the
// detector's ================== fences; a truncated trailing block is
// still returned so a crash mid-report cannot hide a race.
func ParseRaceReports(r io.Reader) []RaceReport {
	var (
		reports []RaceReport
		cur     *RaceReport
		seen    map[string]bool
	)
	flush := func() {
		if cur != nil && len(cur.Files) > 0 {
			reports = append(reports, *cur)
		}
		cur = nil
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.Contains(line, "WARNING: DATA RACE"):
			flush()
			cur = &RaceReport{Raw: line + "\n"}
			seen = make(map[string]bool)
		case cur != nil && strings.HasPrefix(line, "=================="):
			flush()
		case cur != nil:
			cur.Raw += line + "\n"
			if m := raceFrameRE.FindStringSubmatch(line); m != nil {
				file := filepath.Clean(m[1])
				if !seen[file] {
					seen[file] = true
					cur.Files = append(cur.Files, file)
				}
			}
		}
	}
	flush()
	return reports
}

// UnexplainedRaces returns the subset of reports none of whose frame
// files carries a finding from the concurrency analyzers. Matching is
// per file, not per line: the detector blames the access site while
// lockcheck may blame the function exit or the call site two lines up,
// and demanding line equality would turn every such skew into a false
// CI failure. A finding anywhere in the file claims the race.
func UnexplainedRaces(reports []RaceReport, diags []Diagnostic) []RaceReport {
	claimed := make(map[string]bool, len(diags))
	for _, d := range diags {
		claimed[filepath.Clean(d.Pos.Filename)] = true
	}
	var out []RaceReport
	for _, r := range reports {
		explained := false
		for _, f := range r.Files {
			if claimed[f] {
				explained = true
				break
			}
		}
		if !explained {
			out = append(out, r)
		}
	}
	return out
}

// StressFileName is the generated per-package stress harness; the zz_
// prefix keeps it sorted after real sources and greppable for cleanup.
const StressFileName = "zz_mlec_race_stress_test.go"

// stressTarget is one annotated field or package-level var to hammer.
type stressTarget struct {
	recv  string // struct type name; "" for a package-level var
	field string
	guard string
}

// stressSource renders the stress harness for one package: for every
// struct with //mlec:guardedby fields, a test that spawns goroutines
// which lock the guard, touch each guarded field, and unlock — and
// likewise for annotated package-level vars. The harness follows the
// annotated discipline exactly, so on a correct annotation it is
// race-free; if the guard does not actually protect the state (the
// annotation lies, or a method mutates without it while the suite
// runs), the detector fires and the oracle demands a static
// explanation. Returns nil when the package has no annotations.
func stressSource(pkg *Package) []byte {
	targets := collectStressTargets(pkg)
	if len(targets) == 0 {
		return nil
	}
	// Group by receiver type, package-level vars under "".
	byRecv := make(map[string][]stressTarget)
	var recvs []string
	for _, t := range targets {
		if _, ok := byRecv[t.recv]; !ok {
			recvs = append(recvs, t.recv)
		}
		byRecv[t.recv] = append(byRecv[t.recv], t)
	}
	sort.Strings(recvs)

	var b bytes.Buffer
	fmt.Fprintf(&b, "// Code generated by mlecvet -race-oracle; DO NOT EDIT.\n")
	fmt.Fprintf(&b, "//\n// Stress harness for the //mlec:guardedby annotations of this\n")
	fmt.Fprintf(&b, "// package: hammers every annotated struct under the race detector,\n")
	fmt.Fprintf(&b, "// following the annotated lock discipline. Deleted after the run.\n")
	fmt.Fprintf(&b, "package %s\n\n", pkg.Types.Name())
	fmt.Fprintf(&b, "import (\n\t\"sync\"\n\t\"testing\"\n)\n")
	for _, recv := range recvs {
		ts := byRecv[recv]
		name := recv
		if name == "" {
			name = "PkgVars"
		}
		fmt.Fprintf(&b, "\nfunc TestMlecRaceStress%s(t *testing.T) {\n", sanitizeTestName(name))
		if recv != "" {
			fmt.Fprintf(&b, "\tvar s %s\n", recv)
		}
		fmt.Fprintf(&b, "\tvar wg sync.WaitGroup\n")
		fmt.Fprintf(&b, "\tfor g := 0; g < 4; g++ {\n")
		fmt.Fprintf(&b, "\t\twg.Add(1)\n")
		fmt.Fprintf(&b, "\t\tgo func() {\n")
		fmt.Fprintf(&b, "\t\t\tdefer wg.Done()\n")
		fmt.Fprintf(&b, "\t\t\tfor i := 0; i < 1000; i++ {\n")
		// One lock section per distinct guard, touching its fields.
		byGuard := make(map[string][]stressTarget)
		var guards []string
		for _, t := range ts {
			if _, ok := byGuard[t.guard]; !ok {
				guards = append(guards, t.guard)
			}
			byGuard[t.guard] = append(byGuard[t.guard], t)
		}
		sort.Strings(guards)
		for _, guard := range guards {
			ref := guard
			if recv != "" {
				ref = "s." + guard
			}
			fmt.Fprintf(&b, "\t\t\t\t%s.Lock()\n", ref)
			for _, t := range byGuard[guard] {
				fld := t.field
				if recv != "" {
					fld = "s." + fld
				}
				fmt.Fprintf(&b, "\t\t\t\t_ = %s\n", fld)
			}
			fmt.Fprintf(&b, "\t\t\t\t%s.Unlock()\n", ref)
		}
		fmt.Fprintf(&b, "\t\t\t}\n\t\t}()\n\t}\n\twg.Wait()\n}\n")
	}
	return b.Bytes()
}

// collectStressTargets walks the package AST pairing each annotated
// field with its owning struct type name. Generic types are skipped:
// the harness could not pick type arguments for them.
func collectStressTargets(pkg *Package) []stressTarget {
	var out []stressTarget
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				return false // only package-level state
			case *ast.TypeSpec:
				st, ok := n.Type.(*ast.StructType)
				if !ok || n.TypeParams != nil {
					return true
				}
				for _, field := range st.Fields.List {
					for _, name := range field.Names {
						fv, ok := defVar(pkg, name)
						if !ok {
							continue
						}
						if mu, ok := pkg.guardedFields[fv]; ok {
							out = append(out, stressTarget{
								recv:  n.Name.Name,
								field: name.Name,
								guard: mu.Name(),
							})
						}
					}
				}
				return false
			case *ast.ValueSpec:
				for _, name := range n.Names {
					vv, ok := defVar(pkg, name)
					if !ok {
						continue
					}
					if mu, ok := pkg.guardedVars[vv]; ok {
						out = append(out, stressTarget{
							field: name.Name,
							guard: mu.Name(),
						})
					}
				}
			}
			return true
		})
	}
	return out
}

// defVar resolves an identifier's definition to a *types.Var.
func defVar(pkg *Package, name *ast.Ident) (*types.Var, bool) {
	v, ok := pkg.Info.Defs[name].(*types.Var)
	return v, ok
}

// sanitizeTestName maps a type name to a Test suffix fragment.
func sanitizeTestName(s string) string {
	var b strings.Builder
	for _, r := range s {
		if r == '_' || ('a' <= r && r <= 'z') || ('A' <= r && r <= 'Z') || ('0' <= r && r <= '9') {
			b.WriteRune(r)
		}
	}
	if b.Len() == 0 {
		return "X"
	}
	out := b.String()
	if c := out[0]; '0' <= c && c <= '9' {
		out = "X" + out
	}
	return strings.ToUpper(out[:1]) + out[1:]
}

// WriteStressTests writes the generated harness into every annotated
// package directory and returns the written paths (for deferred
// removal) plus the directories that now carry a harness. Packages
// without annotations are untouched.
func WriteStressTests(pkgs []*Package) (paths, dirs []string, err error) {
	for _, pkg := range pkgs {
		src := stressSource(pkg)
		if src == nil {
			continue
		}
		path := filepath.Join(pkg.Dir, StressFileName)
		if _, statErr := os.Stat(path); statErr == nil {
			return paths, dirs, fmt.Errorf("%s already exists; remove the stale harness first", path)
		}
		if werr := os.WriteFile(path, src, 0o644); werr != nil {
			return paths, dirs, werr
		}
		paths = append(paths, path)
		dirs = append(dirs, pkg.Dir)
	}
	return paths, dirs, nil
}

// FormatRaceSummary renders the oracle tally line: total reports, how
// many the static suite claimed, how many it could not.
func FormatRaceSummary(total, unexplained int) string {
	return "race oracle: " + strconv.Itoa(total) + " race report(s), " +
		strconv.Itoa(total-unexplained) + " explained, " +
		strconv.Itoa(unexplained) + " unexplained"
}
