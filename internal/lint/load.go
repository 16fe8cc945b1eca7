package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
)

// A Package is one parsed, type-checked package ready for analysis.
type Package struct {
	// Path is the import path ("mlec/internal/burst").
	Path string
	// Dir is the directory the sources were read from.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// loader links back to the Loader that produced this package, so
	// the fact store can resolve declarations in dependency packages.
	loader *Loader

	// allows maps filename → line → analyzer names allowlisted at that
	// line by //lint:allow directives; the value records whether the
	// directive has suppressed a finding yet (see unusedAllows).
	allows map[string]map[int]map[string]bool
	// hots and colds map filename → line of //mlec:hot and //mlec:cold
	// directives (see hot.go for the attachment and propagation rules).
	hots  map[string]map[int]bool
	colds map[string]map[int]bool
	// Malformed records every directive comment the loader could not
	// honor, sorted by position; the driver reports them. A dangling
	// annotation is the silent failure mode of an enforcement layer —
	// the author believes a kernel is guarded or a finding excused when
	// nothing is — so it is reported rather than ignored.
	Malformed []DirectiveError
}

// A DirectiveError is one malformed directive comment.
type DirectiveError struct {
	Pos token.Position
	// Msg names the directive and what it needs to be well-formed.
	Msg string
}

// What each directive needs: //lint:allow both of its fields; //mlec:hot
// and //mlec:cold something to attach to (hot on or directly above a
// function declaration or a statement, cold a function declaration).
// Any other //mlec: word is no directive at all.
const (
	badAllow = "//lint:allow needs an analyzer name and a reason"
	badHot   = "//mlec:hot anchors a function or statement; //mlec:cold anchors a function"
	badMlec  = " is not a directive; the //mlec: directives are hot and cold"
)

func (p *Package) malformed(pos token.Position, msg string) {
	p.Malformed = append(p.Malformed, DirectiveError{pos, msg})
}

// allowed reports whether a diagnostic from the named analyzer at pos is
// suppressed by a directive on the same line or the line directly above.
func (p *Package) allowed(analyzer string, pos token.Position) bool {
	lines := p.allows[pos.Filename]
	for _, line := range [2]int{pos.Line, pos.Line - 1} {
		if _, ok := lines[line][analyzer]; ok {
			lines[line][analyzer] = true
			return true
		}
	}
	return false
}

// unusedAllows lists the //lint:allow directives that have suppressed
// no finding since the package was loaded, as "file:line: analyzer",
// sorted. After a run of every analyzer such a directive is stale: the
// pattern it excused is gone, or the analyzer no longer reports it.
func (p *Package) unusedAllows() []string {
	var out []string
	for file, lines := range p.allows {
		for line, set := range lines {
			for analyzer, used := range set {
				if !used {
					out = append(out, fmt.Sprintf("%s:%d: %s", file, line, analyzer))
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// A Loader parses and type-checks packages of a single module from
// source, resolving intra-module imports recursively and standard
// library imports through the compiler's source importer. It performs
// the role of go/packages for this dependency-free repository.
type Loader struct {
	fset       *token.FileSet
	moduleDir  string
	modulePath string
	std        types.Importer
	pkgs       map[string]*Package
	loading    map[string]bool
	// IncludeTests adds _test.go files of the package under test (not
	// external _test packages). Off by default: analyzers target
	// library code, and test files freely use conveniences the suite
	// forbids elsewhere.
	IncludeTests bool
}

// goEnvGOROOT asks the go command for its GOROOT, once per process.
var goEnvGOROOT = sync.OnceValues(func() (string, error) {
	out, err := exec.Command("go", "env", "GOROOT").Output()
	return strings.TrimSpace(string(out)), err
})

// NewLoader returns a loader rooted at the module containing dir.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	modDir, modPath, err := findModule(abs)
	if err != nil {
		return nil, err
	}
	// The source importer finds the standard library under go/build's
	// GOROOT, which a binary built with -trimpath leaves empty unless the
	// environment sets it; the go command that builds the hot packages
	// knows it.
	if build.Default.GOROOT == "" {
		root, err := goEnvGOROOT()
		if err != nil {
			return nil, fmt.Errorf("lint: GOROOT is not set and `go env GOROOT` failed: %v", err)
		}
		build.Default.GOROOT = root
	}
	fset := token.NewFileSet()
	return &Loader{
		fset:       fset,
		moduleDir:  modDir,
		modulePath: modPath,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       make(map[string]*Package),
		loading:    make(map[string]bool),
	}, nil
}

// findModule walks up from dir to the nearest go.mod and returns the
// module root directory and module path.
func findModule(dir string) (string, string, error) {
	for d := dir; ; {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module "); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("lint: %s/go.mod has no module line", d)
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		d = parent
	}
}

// Load resolves the given patterns ("./...", "./internal/burst", or
// bare import paths within the module) and returns the matched
// packages, type-checked, in sorted order.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	dirs := make(map[string]bool)
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			if err := l.walk(l.moduleDir, dirs); err != nil {
				return nil, err
			}
		case strings.HasSuffix(pat, "/..."):
			root := filepath.Join(l.moduleDir, strings.TrimSuffix(strings.TrimPrefix(pat, "./"), "/..."))
			if err := l.walk(root, dirs); err != nil {
				return nil, err
			}
		case strings.HasPrefix(pat, "./") || pat == ".":
			dirs[filepath.Join(l.moduleDir, strings.TrimPrefix(pat, "./"))] = true
		case pat == l.modulePath || strings.HasPrefix(pat, l.modulePath+"/"):
			rel := strings.TrimPrefix(strings.TrimPrefix(pat, l.modulePath), "/")
			dirs[filepath.Join(l.moduleDir, rel)] = true
		default:
			return nil, fmt.Errorf("lint: unsupported pattern %q (use ./... or ./dir)", pat)
		}
	}
	var out []*Package
	var paths []string
	for dir := range dirs {
		paths = append(paths, dir)
	}
	sort.Strings(paths)
	for _, dir := range paths {
		pkg, err := l.LoadDir(dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			out = append(out, pkg)
		}
	}
	return out, nil
}

// walk collects every directory under root containing non-test Go
// files, skipping testdata, vendored and hidden trees.
func (l *Loader) walk(root string, dirs map[string]bool) error {
	return filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dirs[filepath.Dir(path)] = true
		}
		return nil
	})
}

// LoadDir parses and type-checks the package in dir (relative paths
// resolve against the working directory). It returns (nil, nil) for
// directories with no non-test Go files.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	rel, err := filepath.Rel(l.moduleDir, dir)
	if err != nil {
		return nil, err
	}
	path := l.modulePath
	if rel != "." {
		path = l.modulePath + "/" + filepath.ToSlash(rel)
	}
	return l.loadPath(path)
}

// loadPath loads an intra-module import path, memoized.
func (l *Loader) loadPath(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("lint: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.modulePath), "/")
	dir := filepath.Join(l.moduleDir, rel)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		if strings.HasSuffix(name, "_test.go") && !l.IncludeTests {
			continue
		}
		names = append(names, filepath.Join(dir, name))
	}
	sort.Strings(names)
	for _, name := range names {
		src, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		if !fileIncluded(src) {
			continue
		}
		f, err := parser.ParseFile(l.fset, name, src, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}
	// External test packages (package foo_test) cannot mix with the
	// package under test in one type-check; drop them.
	if l.IncludeTests {
		base := files[0].Name.Name
		kept := files[:0]
		for _, f := range files {
			if f.Name.Name == base {
				kept = append(kept, f)
			}
		}
		files = kept
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: importerFunc(l.importPkg)}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	pkg := &Package{
		Path:   path,
		Dir:    dir,
		Fset:   l.fset,
		Files:  files,
		Types:  tpkg,
		Info:   info,
		loader: l,
	}
	pkg.collectAllows()
	pkg.validateHotDirectives()
	sort.Slice(pkg.Malformed, func(i, j int) bool {
		a, b := pkg.Malformed[i].Pos, pkg.Malformed[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	l.pkgs[path] = pkg
	return pkg, nil
}

// importPkg satisfies the type-checker: module-internal paths load from
// source recursively; everything else is delegated to the standard
// library source importer.
func (l *Loader) importPkg(path string) (*types.Package, error) {
	if path == l.modulePath || strings.HasPrefix(path, l.modulePath+"/") {
		pkg, err := l.loadPath(path)
		if err != nil {
			return nil, err
		}
		if pkg == nil {
			return nil, fmt.Errorf("lint: no Go files in %s", path)
		}
		return pkg.Types, nil
	}
	return l.std.Import(path)
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// fileIncluded evaluates the file's build constraints (//go:build or
// legacy // +build lines before the package clause) against the host
// GOOS/GOARCH. Multiple constraint lines are conjoined, matching the
// go tool. Files without constraints are always included.
func fileIncluded(src []byte) bool {
	for _, line := range strings.Split(string(src), "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "package ") {
			break
		}
		if !constraint.IsGoBuild(line) && !constraint.IsPlusBuild(line) {
			continue
		}
		expr, err := constraint.Parse(line)
		if err != nil {
			continue // malformed constraint: leave it to the compiler
		}
		if !expr.Eval(buildTagSatisfied) {
			return false
		}
	}
	return true
}

// buildTagSatisfied answers for the host platform and the gc toolchain;
// release tags (go1.x) are all considered satisfied.
func buildTagSatisfied(tag string) bool {
	switch tag {
	case runtime.GOOS, runtime.GOARCH, "gc":
		return true
	}
	if rest, ok := strings.CutPrefix(tag, "go1."); ok {
		return rest != ""
	}
	return tag == "unix" && (runtime.GOOS == "linux" || runtime.GOOS == "darwin")
}

// parseAllowDirective parses one comment's text as a //lint:allow
// directive. isDirective reports whether the comment is an allow
// directive at all; ok reports whether it carries both the mandatory
// analyzer name and a reason. The analyzer name is returned only when
// ok.
func parseAllowDirective(text string) (analyzer string, isDirective, ok bool) {
	rest, found := strings.CutPrefix(text, "//lint:allow")
	if !found {
		return "", false, false
	}
	fields := strings.Fields(rest)
	// Both the analyzer name and a reason are mandatory; a bare
	// directive is reported, not honored.
	if len(fields) < 2 {
		return "", true, false
	}
	return fields[0], true, true
}

// collectAllows indexes //lint:allow and //mlec:hot / //mlec:cold
// directives by file and line.
func (p *Package) collectAllows() {
	p.allows = make(map[string]map[int]map[string]bool)
	p.hots = make(map[string]map[int]bool)
	p.colds = make(map[string]map[int]bool)
	for _, f := range p.Files {
		for _, group := range f.Comments {
			for _, c := range group.List {
				pos := p.Fset.Position(c.Pos())
				if word, isMlec := parseMlecDirective(c.Text); isMlec {
					switch word {
					case "hot":
						byLine(p.hots, pos.Filename)[pos.Line] = true
					case "cold":
						byLine(p.colds, pos.Filename)[pos.Line] = true
					default:
						p.malformed(pos, "//mlec:"+word+badMlec)
					}
					continue
				}
				analyzer, isDirective, ok := parseAllowDirective(c.Text)
				if !isDirective {
					continue
				}
				if !ok {
					p.malformed(pos, badAllow)
					continue
				}
				lines := byLine(p.allows, pos.Filename)
				if lines[pos.Line] == nil {
					lines[pos.Line] = make(map[string]bool)
				}
				lines[pos.Line][analyzer] = false
			}
		}
	}
}

// byLine returns the per-line map of file in a directive index,
// creating it on first use.
func byLine[V any](index map[string]map[int]V, file string) map[int]V {
	lines := index[file]
	if lines == nil {
		lines = make(map[int]V)
		index[file] = lines
	}
	return lines
}
