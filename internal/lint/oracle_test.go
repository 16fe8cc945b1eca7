package lint

import (
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// cannedOracle is a trimmed -gcflags='-d=ssa/check_bce -m=2' transcript
// as the go command prints it from the module root.
const cannedOracle = `# mlec/internal/gf256
internal/gf256/gf256.go:98:9: Found IsInBounds
internal/gf256/gf256.go:132:6: can inline MulByte with cost 4 as: func(byte, byte) byte { return mulTable[a][b] }
internal/gf256/gf256.go:140:12: Found IsSliceInBounds
internal/gf256/gf256.go:150:18: inlining call to MulByte
internal/obs/meter.go:20:6: cannot inline (*Meter).Add: function too complex: cost 149 exceeds budget 80
internal/obs/meter.go:31:6: cannot inline lockedBump: unhandled op DEFER
internal/obs/meter.go:40:9: cannot inline lockedBump into Drain: repeated recursive cycle
internal/obs/meter.go:20:19: inlining call to sync/atomic.(*Int64).Add
internal/gf256/gf256.go:55:2: s escapes to heap
internal/gf256/gf256.go:60:13: make([]byte, n) escapes to heap:
internal/gf256/gf256.go:60:13:   flow: {heap} = &{storage for make([]byte, n)}:
internal/gf256/gf256.go:60:13:     from make([]byte, n) (spill) at internal/gf256/gf256.go:60:13
internal/gf256/gf256.go:60:13: make([]byte, n) escapes to heap
internal/gf256/gf256.go:61:2: acc escapes to heap:
internal/gf256/gf256.go:61:2: moved to heap: acc
internal/gf256/gf256.go:61:2: acc escapes to heap
internal/gf256/gf256.go:62:9: ... argument does not escape
internal/gf256/gf256.go:66:3: header without a summary escapes to heap:
internal/gf256/gf256.go:55:2: leaking param: s
internal/gf256/gf256.go:98:30: Found IsInBounds
not a diagnostic line
/elsewhere/gf256.go:7:3: Found IsInBounds
`

func TestParseOracle(t *testing.T) {
	root := filepath.FromSlash("/work/repo")
	c, err := parseOracle(strings.NewReader(cannedOracle), root)
	if err != nil {
		t.Fatal(err)
	}
	gf := filepath.Join(root, "internal", "gf256", "gf256.go")
	meter := filepath.Join(root, "internal", "obs", "meter.go")

	found := map[srcPos]bool{}
	for _, p := range c.found[gf] {
		found[p] = true
	}
	for _, p := range []srcPos{{gf, 98, 9}, {gf, 98, 30}, {gf, 140, 12}} {
		if !found[p] {
			t.Errorf("missing Found at %v", p)
		}
	}
	if len(c.found[gf]) != 3 {
		t.Errorf("got %d Found lines in gf256.go, want 3: %v", len(c.found[gf]), c.found[gf])
	}
	// An absolute path stays as printed.
	if len(c.found[filepath.FromSlash("/elsewhere/gf256.go")]) != 1 {
		t.Errorf("absolute path not kept: %v", c.found)
	}
	// A same-base file in a different directory shares nothing.
	if other := filepath.Join(root, "internal", "other", "gf256.go"); len(c.found[other]) != 0 {
		t.Errorf("Found leaked across directories to %s", other)
	}

	if !c.inlined[srcPos{gf, 150, 18}] || !c.inlined[srcPos{meter, 20, 19}] {
		t.Errorf("missing inlined call sites: %v", c.inlined)
	}
	if c.inlined[srcPos{gf, 132, 6}] {
		t.Error("`can inline` parsed as an inlined call site")
	}

	for p, want := range map[srcPos]string{
		{meter, 20, 0}: "function too complex: cost 149 exceeds budget 80",
		{meter, 31, 0}: "unhandled op DEFER",
	} {
		if got := c.refused[p]; got != want {
			t.Errorf("refused[%v] = %q, want %q", p, got, want)
		}
	}
	// A call-site refusal ("cannot inline F into G") is not a
	// declaration's verdict.
	if len(c.refused) != 2 {
		t.Errorf("got %d refusals, want 2: %v", len(c.refused), c.refused)
	}

	// Both summary forms count, once per position; the flow headers
	// (trailing colon) and the flows under them do not.
	wantHeap := []heapSite{
		{srcPos{gf, 55, 2}, "s", "escapes to heap"},
		{srcPos{gf, 60, 13}, "make([]byte, n)", "escapes to heap"},
		{srcPos{gf, 61, 2}, "acc", "moved to heap"},
	}
	if !slices.Equal(c.heap[gf], wantHeap) || len(c.heap) != 1 {
		t.Errorf("heap sites = %v, want %v in gf256.go only", c.heap, wantHeap)
	}
}

// TestCompilerBuildFailureIsAnError: a hot package the compiler cannot
// build (go/types accepts a function declared without a body; gc does
// not) makes each compiler-reading analyzer's Run fail instead of
// passing with no verdicts.
func TestCompilerBuildFailureIsAnError(t *testing.T) {
	pkg := loadFixture(t, newFixtureLoader(t), "hotbuildfail")
	for _, a := range []*Analyzer{HotAlloc, HotBCE, HotInline} {
		diags, err := Run([]*Package{pkg}, []*Analyzer{a})
		if err == nil || !strings.Contains(err.Error(), "missing function body") {
			t.Errorf("%s: Run = %v, %v; want the compiler's error", a.Name, diags, err)
		}
	}
}
