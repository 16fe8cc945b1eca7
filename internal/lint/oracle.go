package lint

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
)

// This file asks the compiler. hotbce and hotinline judge what the gc
// compiler does to a hot loop — which bounds checks its prove pass
// keeps, which calls its inliner takes — so instead of modelling either
// pass they read the compiler's own diagnostics, from one build per Run:
//
//	go build -o /dev/null -gcflags='-d=ssa/check_bce -m=2' <dirs>
//
// over the packages holding directly hot code plus the packages that
// declare the callees of their hot-loop calls. The flags apply to the
// packages named on the command line only, and the build uses the
// normal build cache: the go command caches a package's compiler output
// with its object file and replays it on a hit, so a warm run costs
// what a no-op build costs and prints the same lines as a cold one.
//
// Three kinds of line matter; everything else -m=2 prints (escape
// analysis, inlining costs, package banners) is ignored:
//
//	f.go:L:C: Found IsInBounds            a kept index check, C at the '['
//	f.go:L:C: Found IsSliceInBounds       a kept slice check, C at the '['
//	f.go:L:C: inlining call to F          an inlined call, C at the '('
//	f.go:L:C: cannot inline F: reason     a declaration the inliner refused
//
// A check kept inside an inlined callee is reported at the call's '('.
// A build that fails is an error of the Run, never a silent pass.

// srcPos is a compiler-reported position: an absolute file path, a
// line and a byte column, as go/token counts them.
type srcPos struct {
	file      string
	line, col int
}

// compiled is the parsed compiler output.
type compiled struct {
	found   map[string][]srcPos // file → kept bounds checks
	inlined map[srcPos]bool     // call sites the inliner took
	refused map[srcPos]string   // declaration line (col 0) → why it cannot inline
}

var (
	foundRe   = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): Found Is(?:Slice)?InBounds$`)
	inlinedRe = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): inlining call to `)
	refusedRe = regexp.MustCompile(`^(.+\.go):(\d+):(\d+): cannot inline [^ ]+: (.+)$`)
)

// parseOracle reads the combined output of the diagnostic build. Paths
// the go command printed relative to its working directory dir are
// made absolute, so they compare equal to the loader's file names.
func parseOracle(r io.Reader, dir string) (*compiled, error) {
	c := &compiled{
		found:   make(map[string][]srcPos),
		inlined: make(map[srcPos]bool),
		refused: make(map[srcPos]string),
	}
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

// compileHot runs the diagnostic build over the packages hotbce and
// hotinline sweep and parses what the compiler printed. With no
// directly hot code among pkgs there is nothing to build.
func compileHot(pkgs []*Package, facts *Facts) (*compiled, error) {
	dirs := make(map[string]bool)
	root := ""
	var err error
	for _, pkg := range pkgs {
		pass := &Pass{Fset: pkg.Fset, Files: pkg.Files, Pkg: pkg.Types, Info: pkg.Info, Facts: facts, pkg: pkg}
		eachDirectHot(pass, func(fd *ast.FuncDecl, inScope func(ast.Node) bool) {
			if pkg.loader == nil {
				err = fmt.Errorf("lint: %s has hot code but was not loaded from a directory the compiler can build", pkg.Path)
				return
			}
			root = pkg.loader.moduleDir
			dirs[pkg.Dir] = true
			for _, call := range loopCallExprs(fd) {
				if site, _ := hotCallee(pkg.Info, facts, call); site != nil && inScope(call) {
					dirs[site.pkg.Dir] = true
				}
			}
		})
		if err != nil {
			return nil, err
		}
	}
	if len(dirs) == 0 {
		return &compiled{}, nil
	}
	args := []string{"build", "-o", os.DevNull, "-gcflags=-d=ssa/check_bce -m=2"}
	for dir := range dirs {
		args = append(args, dir)
	}
	sort.Strings(args[4:])
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		return nil, fmt.Errorf("lint: compiling the hot packages for hotbce/hotinline: %v\n%s", err, out)
	}
	return parseOracle(bytes.NewReader(out), root)
}
