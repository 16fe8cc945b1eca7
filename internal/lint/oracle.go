package lint

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
)

// This file asks the compiler. hotalloc, hotbce and hotinline judge
// what the gc compiler does to hot code — which values its escape
// analysis moves to the heap, which bounds checks its prove pass keeps,
// which calls its inliner takes — so instead of modelling any of those
// passes they read the compiler's own diagnostics, from one build per
// Run:
//
//	go build -o /dev/null -gcflags='-d=ssa/check_bce -m=2' <dirs>
//
// over every package holding hot scope: a //mlec:hot function, a
// function hot by propagation, or a //mlec:hot region. The flags apply
// to the packages named on the command line only, and the build uses
// the normal build cache: the go command caches a package's compiler
// output with its object file and replays it on a hit, so a warm run
// costs what a no-op build costs and prints the same lines as a cold
// one.
//
// Six kinds of line matter; everything else -m=2 prints (escape flows
// and their `…escapes to heap:` headers, inlining costs, package
// banners) is ignored:
//
//	f.go:L:C: Found IsInBounds            a kept index check, C at the '['
//	f.go:L:C: Found IsSliceInBounds       a kept slice check, C at the '['
//	f.go:L:C: inlining call to F          an inlined call, C at the '('
//	f.go:L:C: cannot inline F: reason     a declaration the inliner refused
//	f.go:L:C: <expr> escapes to heap      a heap allocation of expr
//	f.go:L:C: moved to heap: <name>       a variable allocated on the heap
//
// A check or an allocation inside an inlined callee is reported at the
// call's '('. A build that fails is an error of the Run, never a silent
// pass.

// srcPos is a compiler-reported position: an absolute file path, a
// line and a byte column, as go/token counts them.
type srcPos struct {
	file      string
	line, col int
}

// compiled is the parsed compiler output.
type compiled struct {
	found   map[string][]srcPos   // file → kept bounds checks
	heap    map[string][]heapSite // file → heap allocations, one per position
	inlined map[srcPos]bool       // call sites the inliner took
	refused map[srcPos]string     // declaration line (col 0) → why it cannot inline
}

// heapSite is one allocation the compiler's escape analysis put on the
// heap, in the compiler's own words.
type heapSite struct {
	srcPos
	what    string // the expression or variable
	verdict string // "escapes to heap" or "moved to heap"
}

var (
	foundRe   = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): Found Is(?:Slice)?InBounds$`)
	inlinedRe = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): inlining call to `)
	refusedRe = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): cannot inline [^ ]+: (.+)$`)
	heapRe    = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): (?:(.+) (escapes to heap)|(moved to heap): (.+))$`)
)

// parseOracle reads the combined output of the diagnostic build. Paths
// the go command printed relative to its working directory dir are
// made absolute, so they compare equal to the loader's file names.
func parseOracle(r io.Reader, dir string) (*compiled, error) {
	c := &compiled{
		found:   make(map[string][]srcPos),
		heap:    make(map[string][]heapSite),
		inlined: make(map[srcPos]bool),
		refused: make(map[srcPos]string),
	}
	seen := make(map[srcPos]bool)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if m := foundRe.FindStringSubmatch(line); m != nil {
			p := diagPos(dir, m)
			c.found[p.file] = append(c.found[p.file], p)
		} else if m := inlinedRe.FindStringSubmatch(line); m != nil {
			c.inlined[diagPos(dir, m)] = true
		} else if m := refusedRe.FindStringSubmatch(line); m != nil {
			p := diagPos(dir, m)
			p.col = 0
			c.refused[p] = m[4]
		} else if m := heapRe.FindStringSubmatch(line); m != nil {
			if p := diagPos(dir, m); !seen[p] {
				seen[p] = true
				c.heap[p.file] = append(c.heap[p.file], heapSite{p, m[4] + m[7], m[5] + m[6]})
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("lint: reading compiler output: %w", err)
	}
	return c, nil
}

// diagPos builds the position of a matched diagnostic (file, line, column
// in m[1:4]; the regexps guarantee the numbers parse).
func diagPos(dir string, m []string) srcPos {
	file := m[1]
	if !filepath.IsAbs(file) {
		file = filepath.Join(dir, file)
	}
	line, _ := strconv.Atoi(m[2])
	col, _ := strconv.Atoi(m[3])
	return srcPos{file: filepath.Clean(file), line: line, col: col}
}

// compileHot runs the diagnostic build over every package that holds
// hot scope and parses what the compiler printed. With no hot scope
// anywhere there is nothing to build.
func compileHot(facts *Facts) (*compiled, error) {
	var hot []*Package
	seen := make(map[*Package]bool)
	for fn, site := range facts.decls {
		if seen[site.pkg] || !facts.hot[fn] && (facts.cold[fn] || site.decl.Body == nil ||
			len(hotRegionStmts(facts.hotIdx, facts.fset, site.decl.Body)) == 0) {
			continue
		}
		seen[site.pkg] = true
		hot = append(hot, site.pkg)
	}
	if len(hot) == 0 {
		return &compiled{}, nil
	}
	sort.Slice(hot, func(i, j int) bool { return hot[i].Dir < hot[j].Dir })
	args := []string{"build", "-o", os.DevNull, "-gcflags=-d=ssa/check_bce -m=2"}
	for _, pkg := range hot {
		if pkg.loader == nil {
			return nil, fmt.Errorf("lint: %s has hot code but was not loaded from a directory the compiler can build", pkg.Path)
		}
		args = append(args, pkg.Dir)
	}
	cmd := exec.Command("go", args...)
	cmd.Dir = hot[0].loader.moduleDir
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("lint: compiling the hot packages: %v\n%s", err, out)
	}
	return parseOracle(bytes.NewReader(out), cmd.Dir)
}
