package mlec

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"unicode"
)

// docFiles are the documents whose code references TestDocsNameRealCode
// holds to the tree. bench/README.md is left out: bench/ changes only
// in benchmark-only changes, so its stale names wait for one.
var docFiles = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"}

// codeIndex is what the tree declares, by name: package names with their
// package-scope identifiers, type names with their methods and fields,
// the functions of _test.go files, every file's slash-separated path,
// and every string literal of the program (span, counter and
// fault-point names are strings, not identifiers).
type codeIndex struct {
	pkgScope map[string]map[string]bool // package name → package-scope identifiers
	pkgTypes map[string][]string        // package name → its type names
	members  map[string]map[string]bool // type name → methods and fields
	tests    map[string]bool            // functions declared in _test.go files
	files    []string
	strs     map[string]bool
}

// indexTree records every file under root and parses every .go file
// (testdata included: docs name fixtures too) without type-checking it.
func indexTree(t *testing.T, root string) *codeIndex {
	t.Helper()
	ix := &codeIndex{
		pkgScope: make(map[string]map[string]bool),
		pkgTypes: make(map[string][]string),
		members:  make(map[string]map[string]bool),
		tests:    make(map[string]bool),
		strs:     make(map[string]bool),
	}
	add := func(m map[string]map[string]bool, k, v string) {
		if m[k] == nil {
			m[k] = make(map[string]bool)
		}
		m[k][v] = true
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		ix.files = append(ix.files, filepath.ToSlash(rel))
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil // fixtures may be deliberately broken; their path still counts
		}
		pkg := strings.TrimSuffix(f.Name.Name, "_test")
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if ok && lit.Kind == token.STRING && !strings.HasSuffix(path, "_test.go") {
				if v, err := strconv.Unquote(lit.Value); err == nil {
					ix.strs[v] = true
				}
			}
			return true
		})
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					add(ix.pkgScope, pkg, decl.Name.Name)
					if strings.HasSuffix(path, "_test.go") {
						ix.tests[decl.Name.Name] = true
					}
					continue
				}
				if recv := receiverTypeName(decl.Recv.List[0].Type); recv != "" {
					add(ix.members, recv, decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(ix.pkgScope, pkg, spec.Name.Name)
						ix.pkgTypes[pkg] = append(ix.pkgTypes[pkg], spec.Name.Name)
						if ix.members[spec.Name.Name] == nil {
							ix.members[spec.Name.Name] = make(map[string]bool)
						}
						ast.Inspect(spec.Type, func(n ast.Node) bool {
							if field, ok := n.(*ast.Field); ok {
								for _, name := range field.Names {
									add(ix.members, spec.Name.Name, name.Name)
								}
							}
							return true
						})
					case *ast.ValueSpec:
						for _, name := range spec.Names {
							add(ix.pkgScope, pkg, name.Name)
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// receiverTypeName returns the base type name of a method receiver.
func receiverTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

var (
	backticked = regexp.MustCompile("`([^`\n]+)`")
	goPath     = regexp.MustCompile(`^[A-Za-z0-9][\w./-]*\.go$`)
	dotted     = regexp.MustCompile(`^[A-Za-z_]\w*(\.[A-Za-z_]\w*)+(\(\))?$`)
	testName   = regexp.MustCompile(`^(Test|Fuzz|Benchmark)[A-Z0-9_]\w*$`)
	lineRef    = regexp.MustCompile(`(^|\.go):[\d,–-]+$`)
)

// resolve reports whether one backticked reference names something in
// the tree. The claims are `path.go` (any file a path suffix names), a
// bare `TestX`, `FuzzX` or `BenchmarkX` (a function of a _test.go file)
// and the dotted forms `pkg.Ident`, `pkg.Type.Member` and `Type.Member`
// (a trailing "()" allowed). A pkg.Ident may name a method of one of
// the package's types (`rs.EncodeParallel`). A line number (`x.go:12`,
// `:12`) never resolves: no test can hold one. Not claims: a dotted name
// with a lower-case head that is no package of the tree (a standard
// library package, or `wg.Add`, an expression on a local), one that
// names a file (`BENCHMARK.json`) or a string of the program (span and
// fault-point names), and snake_case names (metrics).
func (ix *codeIndex) resolve(ref string) bool {
	switch {
	case lineRef.MatchString(ref):
		return false
	case goPath.MatchString(ref):
		return ix.isFile(ref)
	case testName.MatchString(ref):
		return ix.tests[ref]
	}
	if !dotted.MatchString(ref) || ix.isFile(ref) || ix.strs[ref] {
		return true
	}
	parts := strings.Split(strings.TrimSuffix(ref, "()"), ".")
	if strings.Contains(parts[len(parts)-1], "_") {
		return true
	}
	head, rest := parts[0], parts[1:]
	switch {
	case ix.pkgScope[head] != nil:
		if ix.pkgScope[head][rest[0]] {
			return ix.membersResolve(rest)
		}
		for _, typ := range ix.pkgTypes[head] {
			if ix.members[typ][rest[0]] && ix.membersResolve(append([]string{typ}, rest...)) {
				return true
			}
		}
		return false
	case ix.members[head] != nil:
		return ix.membersResolve(parts)
	}
	return unicode.IsLower(rune(head[0]))
}

// isFile reports whether a path suffix names a file of the tree.
func (ix *codeIndex) isFile(ref string) bool {
	for _, f := range ix.files {
		if f == ref || strings.HasSuffix(f, "/"+ref) {
			return true
		}
	}
	return false
}

// membersResolve checks a chain Type.Member.Member…: each member must be
// a method or field of the preceding type, or, past a value whose type
// the index cannot know (a package variable, a field), of some type.
func (ix *codeIndex) membersResolve(chain []string) bool {
	for i := 1; i < len(chain); i++ {
		if m := ix.members[chain[i-1]]; m != nil {
			if !m[chain[i]] {
				return false
			}
			continue
		}
		found := false
		for _, m := range ix.members {
			if m[chain[i]] {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// staleRefs returns every backticked reference of the document that
// names nothing in the tree, as "file:line: `ref`". Fenced code blocks
// are skipped: they hold shell commands and output, not references.
func (ix *codeIndex) staleRefs(name, text string) []string {
	var out []string
	fenced := false
	for i, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if fenced {
			continue
		}
		for _, m := range backticked.FindAllStringSubmatch(line, -1) {
			if ref := strings.TrimSpace(m[1]); !ix.resolve(ref) {
				out = append(out, name+":"+strconv.Itoa(i+1)+": `"+ref+"`")
			}
		}
	}
	return out
}

// untestedSections returns the heading of every "## " section of the
// document that names no test, by a backticked `TestX`, `FuzzX` or
// `BenchmarkX` the tree declares, outside fenced code blocks.
func (ix *codeIndex) untestedSections(text string) []string {
	var out []string
	heading, tested, fenced := "", true, false
	for _, line := range strings.Split(text+"\n## end", "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			fenced = !fenced
			continue
		}
		if fenced {
			continue
		}
		if strings.HasPrefix(line, "## ") {
			if !tested {
				out = append(out, heading)
			}
			heading, tested = line, false
			continue
		}
		for _, m := range backticked.FindAllStringSubmatch(line, -1) {
			if ref := strings.TrimSpace(m[1]); testName.MatchString(ref) && ix.tests[ref] {
				tested = true
			}
		}
	}
	return out
}

// TestDocsNameRealCode holds DESIGN.md, README.md and EXPERIMENTS.md to
// the tree: every backticked `pkg.Ident`, `Type.Method`, `path.go` and
// test name must name a declaration or file that exists, so a rename or
// deletion that leaves a document behind fails here. Every section of
// DESIGN.md names at least one test, the one that holds its contract.
func TestDocsNameRealCode(t *testing.T) {
	ix := indexTree(t, ".")
	for _, name := range docFiles {
		text, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, stale := range ix.staleRefs(name, string(text)) {
			t.Errorf("%s names nothing in the tree", stale)
		}
		if name == "DESIGN.md" {
			for _, heading := range ix.untestedSections(string(text)) {
				t.Errorf("DESIGN.md section %q names no test", heading)
			}
		}
	}
	// The check must bite: seeded stale references of each form fail,
	// and so does a section that names no test.
	for _, ref := range []string{"mathx.RateToAnnualPDL", "Pool.LostStripeIDs", "obs.Task.SetLevel", "internal/lint/probmix.go", "domain.go:12", "sampler.go:147", ":88", "TestNoSuchThing"} {
		if ix.resolve(ref) {
			t.Errorf("seeded stale reference `%s` resolved", ref)
		}
	}
	seeded := "# Doc\n\n## 1. Held\n\n`TestDocsNameRealCode`\n\n## 2. Unheld\n\n`TestNoSuchThing`, `mathx.Prob`\n"
	if got := ix.untestedSections(seeded); len(got) != 1 || got[0] != "## 2. Unheld" {
		t.Errorf("seeded sections: untested %q, want only \"## 2. Unheld\"", got)
	}
}
