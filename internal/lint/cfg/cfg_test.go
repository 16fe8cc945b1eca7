package cfg

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"
)

// parse builds the CFG of the first function in src.
func parse(t *testing.T, src string) *Graph {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "x.go", "package p\n"+src, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			return Build(fd.Body)
		}
	}
	t.Fatal("no function in source")
	return nil
}

// reachable returns the blocks reachable from the entry.
func reachable(g *Graph) map[*Block]bool {
	seen := map[*Block]bool{}
	var walk func(*Block)
	walk = func(b *Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.Succs {
			walk(s)
		}
	}
	walk(g.Entry)
	return seen
}

// reachableNodes sums the nodes across reachable blocks.
func reachableNodes(g *Graph) int {
	n := 0
	for b := range reachable(g) {
		n += len(b.Nodes)
	}
	return n
}

func TestStraightLine(t *testing.T) {
	g := parse(t, `func f() { x := 1; x++; _ = x }`)
	if len(g.Entry.Nodes) != 3 {
		t.Fatalf("entry has %d nodes, want 3: %s", len(g.Entry.Nodes), g)
	}
	if len(g.Entry.Succs) != 1 {
		t.Fatalf("entry has %d succs, want 1 (exit): %s", len(g.Entry.Succs), g)
	}
}

func TestIfElse(t *testing.T) {
	g := parse(t, `func f(c bool) int {
		if c {
			return 1
		} else {
			return 2
		}
	}`)
	// Entry evaluates the condition and branches two ways.
	if len(g.Entry.Succs) != 2 {
		t.Fatalf("if-entry has %d succs, want 2: %s", len(g.Entry.Succs), g)
	}
	// Both returns must appear in reachable blocks.
	returns := 0
	for b := range reachable(g) {
		for _, n := range b.Nodes {
			if _, ok := n.(*ast.ReturnStmt); ok {
				returns++
			}
		}
	}
	if returns != 2 {
		t.Fatalf("found %d returns, want 2: %s", returns, g)
	}
}

func TestForLoopBackEdge(t *testing.T) {
	g := parse(t, `func f() {
		for i := 0; i < 10; i++ {
			_ = i
		}
	}`)
	// Some block must have a back edge: a successor with a smaller
	// index that is a loop head.
	hasBack := false
	for b := range reachable(g) {
		for _, s := range b.Succs {
			if s.Index < b.Index && s.Kind == "for.head" {
				hasBack = true
			}
		}
	}
	if !hasBack {
		t.Fatalf("no back edge to for.head: %s", g)
	}
}

func TestRangeHeaderHoldsRangeStmt(t *testing.T) {
	g := parse(t, `func f(m map[int]int) {
		for k, v := range m {
			_, _ = k, v
		}
	}`)
	found := false
	for b := range reachable(g) {
		for _, n := range b.Nodes {
			if _, ok := n.(*ast.RangeStmt); ok {
				found = true
				if b.Kind != "range.head" {
					t.Fatalf("RangeStmt in %q block, want range.head", b.Kind)
				}
				// The header must both enter the body and exit.
				if len(b.Succs) != 2 {
					t.Fatalf("range.head has %d succs, want 2: %s", len(b.Succs), g)
				}
			}
		}
	}
	if !found {
		t.Fatalf("no RangeStmt node in graph: %s", g)
	}
}

func TestBreakContinue(t *testing.T) {
	g := parse(t, `func f(xs []int) int {
		total := 0
		for _, x := range xs {
			if x < 0 {
				continue
			}
			if x > 100 {
				break
			}
			total += x
		}
		return total
	}`)
	// The accumulation and the return must both be reachable.
	if reachableNodes(g) < 6 {
		t.Fatalf("only %d reachable nodes: %s", reachableNodes(g), g)
	}
	returns := 0
	for b := range reachable(g) {
		for _, n := range b.Nodes {
			if _, ok := n.(*ast.ReturnStmt); ok {
				returns++
			}
		}
	}
	if returns != 1 {
		t.Fatalf("return unreachable after break/continue loop: %s", g)
	}
}

func TestLabeledBreak(t *testing.T) {
	g := parse(t, `func f() int {
	outer:
		for i := 0; i < 3; i++ {
			for j := 0; j < 3; j++ {
				if i*j > 2 {
					break outer
				}
			}
		}
		return 7
	}`)
	returns := 0
	for b := range reachable(g) {
		for _, n := range b.Nodes {
			if _, ok := n.(*ast.ReturnStmt); ok {
				returns++
			}
		}
	}
	if returns != 1 {
		t.Fatalf("return not reachable through labeled break: %s", g)
	}
}

func TestSwitchFallthrough(t *testing.T) {
	g := parse(t, `func f(x int) int {
		y := 0
		switch x {
		case 1:
			y = 1
			fallthrough
		case 2:
			y += 2
		default:
			y = 9
		}
		return y
	}`)
	// All three case bodies and the return are reachable.
	if reachableNodes(g) < 7 {
		t.Fatalf("only %d reachable nodes: %s", reachableNodes(g), g)
	}
}

func TestSelect(t *testing.T) {
	g := parse(t, `func f(a, b chan int) int {
		select {
		case v := <-a:
			return v
		case <-b:
			return 0
		}
	}`)
	returns := 0
	for b := range reachable(g) {
		for _, n := range b.Nodes {
			if _, ok := n.(*ast.ReturnStmt); ok {
				returns++
			}
		}
	}
	if returns != 2 {
		t.Fatalf("found %d reachable returns in select, want 2: %s", returns, g)
	}
}

func TestInfiniteLoopNoFalseExit(t *testing.T) {
	g := parse(t, `func f() {
		for {
			_ = 1
		}
	}`)
	// With no condition the head must not edge to for.done; the done
	// block stays unreachable (nothing follows the loop).
	for b := range reachable(g) {
		if b.Kind == "for.head" && len(b.Succs) != 1 {
			t.Fatalf("infinite loop head has %d succs, want 1: %s", len(b.Succs), g)
		}
	}
}

func TestNilBody(t *testing.T) {
	g := Build(nil)
	if g.Entry == nil || len(g.Blocks) == 0 {
		t.Fatal("nil body must still yield an entry block")
	}
}

func TestGotoForwardEdgesToLabel(t *testing.T) {
	g := parse(t, `func f() {
		x := 1
		goto done
	done:
		_ = x
	}`)
	if reachableNodes(g) < 1 {
		t.Fatalf("goto graph lost nodes: %s", g)
	}
	// A forward goto must not create a cycle.
	if loops := g.LoopBlocks(); len(loops) != 0 {
		t.Fatalf("forward goto produced %d loop blocks: %s", len(loops), g)
	}
	// The label block must be reachable from the goto block.
	var label *Block
	for _, b := range g.Blocks {
		if b.Kind == "label.done" {
			label = b
		}
	}
	if label == nil || !reachable(g)[label] {
		t.Fatalf("label block missing or unreachable: %s", g)
	}
}

func TestGotoBackwardFormsLoop(t *testing.T) {
	// A loop written with goto — invisible to AST for/range ancestry,
	// but a genuine cycle the hot-path analyzers must classify as a
	// loop.
	g := parse(t, `func f(n int) {
		i := 0
	again:
		i++
		if i < n {
			goto again
		}
	}`)
	loops := g.LoopBlocks()
	if len(loops) == 0 {
		t.Fatalf("backward goto formed no loop: %s", g)
	}
	// The labeled block itself must be part of the cycle.
	inCycle := false
	for b := range loops {
		if b.Kind == "label.again" {
			inCycle = true
		}
	}
	if !inCycle {
		t.Fatalf("label.again not classified as a loop block: %s", g)
	}
}

func TestLabeledContinueKeepsBackEdge(t *testing.T) {
	// continue outer from the inner loop must edge to the outer loop's
	// post block, keeping the outer cycle intact and both loop bodies
	// classified as loop blocks.
	g := parse(t, `func f(xs [][]int) int {
		total := 0
	outer:
		for i := 0; i < len(xs); i++ {
			for _, x := range xs[i] {
				if x < 0 {
					continue outer
				}
				total += x
			}
		}
		return total
	}`)
	loops := g.LoopBlocks()
	kinds := map[string]bool{}
	for b := range loops {
		kinds[b.Kind] = true
	}
	if !kinds["for.body"] || !kinds["range.body"] {
		t.Fatalf("labeled continue broke loop classification (loop kinds %v): %s", kinds, g)
	}
	returns := 0
	for b := range reachable(g) {
		for _, n := range b.Nodes {
			if _, ok := n.(*ast.ReturnStmt); ok {
				returns++
			}
		}
	}
	if returns != 1 {
		t.Fatalf("return unreachable through labeled continue: %s", g)
	}
}

func TestLoopBlocksStraightLine(t *testing.T) {
	g := parse(t, `func f() { x := 1; _ = x }`)
	if loops := g.LoopBlocks(); len(loops) != 0 {
		t.Fatalf("straight-line code has %d loop blocks, want 0: %s", len(loops), g)
	}
}

func TestLoopBlocksForAndAfter(t *testing.T) {
	g := parse(t, `func f(n int) int {
		s := 0
		for i := 0; i < n; i++ {
			s += i
		}
		return s
	}`)
	loops := g.LoopBlocks()
	for b := range loops {
		switch b.Kind {
		case "for.head", "for.body", "for.post":
		default:
			t.Fatalf("non-loop block %q classified as loop: %s", b.Kind, g)
		}
	}
	if len(loops) != 3 {
		t.Fatalf("got %d loop blocks, want head+body+post: %s", len(loops), g)
	}
}

// blocksOfKind returns the blocks with the given Kind, in index order.
func blocksOfKind(g *Graph, kind string) []*Block {
	var out []*Block
	for _, b := range g.Blocks {
		if b.Kind == kind {
			out = append(out, b)
		}
	}
	return out
}

// hasEdge reports whether from lists to among its successors.
func hasEdge(from, to *Block) bool {
	for _, s := range from.Succs {
		if s == to {
			return true
		}
	}
	return false
}

// TestRangeOverIntBackEdge locks the shape loop passes depend on for
// range-over-int loops (go1.22): the header holds the RangeStmt,
// the body edges back to the header, and the body is the header's
// FIRST successor — passes refine "iteration in progress" facts along
// Succs[0] and "loop done" facts along Succs[1].
func TestRangeOverIntBackEdge(t *testing.T) {
	g := parse(t, `func f(n int) int {
		s := 0
		for i := range n {
			s += i
		}
		return s
	}`)
	heads := blocksOfKind(g, "range.head")
	bodies := blocksOfKind(g, "range.body")
	dones := blocksOfKind(g, "range.done")
	if len(heads) != 1 || len(bodies) != 1 || len(dones) != 1 {
		t.Fatalf("want one range head/body/done, got %s", g)
	}
	head, body, done := heads[0], bodies[0], dones[0]
	if len(head.Nodes) != 1 {
		t.Fatalf("range head holds %d nodes, want the RangeStmt alone: %s", len(head.Nodes), g)
	}
	if _, ok := head.Nodes[0].(*ast.RangeStmt); !ok {
		t.Fatalf("range head node is %T, want *ast.RangeStmt", head.Nodes[0])
	}
	if len(head.Succs) != 2 || head.Succs[0] != body || head.Succs[1] != done {
		t.Fatalf("range head succs must be [body, done]: %s", g)
	}
	if !hasEdge(body, head) {
		t.Fatalf("range body missing back-edge to header: %s", g)
	}
	loops := g.LoopBlocks()
	if !loops[head] || !loops[body] {
		t.Fatalf("range-over-int header/body not classified as loop blocks: %s", g)
	}
	if loops[done] {
		t.Fatalf("range.done wrongly classified as a loop block: %s", g)
	}
}

// TestNestedLabeledLoopBackEdges locks the back-edge structure of
// nested labeled for loops: `continue outer` from the inner body must
// edge to the OUTER post block (so the outer increment still runs),
// `break inner` to the inner done block, and falling out of the inner
// loop must rejoin the outer post→head back-edge.
func TestNestedLabeledLoopBackEdges(t *testing.T) {
	g := parse(t, `func f(n int) {
	outer:
		for i := 0; i < n; i++ {
		inner:
			for j := 0; j < n; j++ {
				if j == i {
					continue outer
				}
				if j > i {
					break inner
				}
			}
		}
	}`)
	heads := blocksOfKind(g, "for.head")
	posts := blocksOfKind(g, "for.post")
	dones := blocksOfKind(g, "for.done")
	if len(heads) != 2 || len(posts) != 2 || len(dones) != 2 {
		t.Fatalf("want two of each loop block kind, got %s", g)
	}
	outerHead, innerHead := heads[0], heads[1]
	outerPost, innerPost := posts[0], posts[1]
	outerDone, innerDone := dones[0], dones[1]
	if !hasEdge(outerPost, outerHead) || !hasEdge(innerPost, innerHead) {
		t.Fatalf("post→head back-edge missing: %s", g)
	}
	// continue outer: some block of the inner body edges to outerPost.
	contOK := false
	for _, b := range g.Blocks {
		if b != innerPost && b != innerDone && hasEdge(b, outerPost) && b.Kind == "if.then" {
			contOK = true
		}
	}
	if !contOK {
		t.Fatalf("`continue outer` does not edge to the outer post block: %s", g)
	}
	// break inner: an if.then block edges to innerDone.
	brkOK := false
	for _, b := range blocksOfKind(g, "if.then") {
		if hasEdge(b, innerDone) {
			brkOK = true
		}
	}
	if !brkOK {
		t.Fatalf("`break inner` does not edge to the inner done block: %s", g)
	}
	// Falling out of the inner loop rejoins the outer back-edge.
	if !hasEdge(innerDone, outerPost) {
		t.Fatalf("inner loop exit does not rejoin the outer post block: %s", g)
	}
	loops := g.LoopBlocks()
	if !loops[outerHead] || !loops[innerHead] || !loops[outerPost] || !loops[innerPost] {
		t.Fatalf("loop headers/posts not all classified as loop blocks: %s", g)
	}
	if loops[outerDone] {
		t.Fatalf("outer for.done wrongly classified as a loop block: %s", g)
	}
	// The inner done IS on the outer cycle — a fact passes must respect
	// when deciding "does this block re-execute".
	if !loops[innerDone] {
		t.Fatalf("inner for.done lies on the outer cycle and must be a loop block: %s", g)
	}
}

// TestLabeledRangeContinueBackEdge: `continue outer` inside a nested
// range loop must edge to the OUTER range header (range loops have no
// post block; the header re-evaluates the RangeStmt).
func TestLabeledRangeContinueBackEdge(t *testing.T) {
	g := parse(t, `func f(xs [][]int) {
	outer:
		for _, row := range xs {
			for _, v := range row {
				if v == 0 {
					continue outer
				}
			}
		}
	}`)
	heads := blocksOfKind(g, "range.head")
	if len(heads) != 2 {
		t.Fatalf("want two range headers, got %s", g)
	}
	outerHead := heads[0]
	contOK := false
	for _, b := range blocksOfKind(g, "if.then") {
		if hasEdge(b, outerHead) {
			contOK = true
		}
	}
	if !contOK {
		t.Fatalf("`continue outer` does not edge back to the outer range header: %s", g)
	}
	loops := g.LoopBlocks()
	if !loops[outerHead] {
		t.Fatalf("outer range header not classified as a loop block: %s", g)
	}
}

// TestCondSuccsOrderTrueFirst locks the successor ordering convention
// across every conditional construct: Succs[0] is the edge taken when
// the condition holds (if.then / loop body), Succs[1] the refuted edge.
// A pass that refines facts along branch edges relies on it.
func TestCondSuccsOrderTrueFirst(t *testing.T) {
	g := parse(t, `func f(s []byte, n int) {
		if len(s) > 0 {
			_ = s[0]
		}
		for len(s) >= 8 {
			s = s[8:]
		}
		for i := 0; i < n; i++ {
			_ = i
		}
	}`)
	for _, b := range g.Blocks {
		if len(b.Nodes) == 0 || len(b.Succs) != 2 {
			continue
		}
		switch b.Kind {
		case "for.head":
			if b.Succs[0].Kind != "for.body" || b.Succs[1].Kind != "for.done" {
				t.Fatalf("for.head succs not [body, done]: %s", g)
			}
		}
	}
	// The if condition lives at the end of its predecessor block; its
	// first successor must be the then block.
	thens := blocksOfKind(g, "if.then")
	if len(thens) != 1 {
		t.Fatalf("want one if.then, got %s", g)
	}
	for _, b := range g.Blocks {
		if hasEdge(b, thens[0]) && b.Succs[0] != thens[0] {
			t.Fatalf("if predecessor's first successor is not the then block: %s", g)
		}
	}
}

// edgesInto returns the blocks with a direct edge into target.
func edgesInto(g *Graph, target *Block) []*Block {
	var in []*Block
	for _, b := range g.Blocks {
		for _, s := range b.Succs {
			if s == target {
				in = append(in, b)
				break
			}
		}
	}
	return in
}

func TestExitFieldIsTheExitBlock(t *testing.T) {
	g := parse(t, `func f() { return }`)
	if g.Exit == nil || g.Exit.Kind != "exit" {
		t.Fatalf("Graph.Exit = %v, want the exit block: %s", g.Exit, g)
	}
	if len(g.Exit.Succs) != 0 {
		t.Fatalf("exit block has successors: %s", g)
	}
}

// TestPanicTerminatesBlock locks the panic-edge semantics a
// path-sensitive pass leans on: a direct panic call ends its block with
// an edge to Exit, and statements after it are unreachable from entry.
func TestPanicTerminatesBlock(t *testing.T) {
	g := parse(t, `func f(x bool) {
	if x {
		panic("bad")
	}
	use()
}`)
	// The then-branch must edge to Exit, not rejoin the if.done block:
	// otherwise the panic path would appear to fall through to use().
	var panicBlk *Block
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if es, ok := n.(*ast.ExprStmt); ok && isPanicCall(es.X) {
				panicBlk = b
			}
		}
	}
	if panicBlk == nil {
		t.Fatalf("no block holds the panic call: %s", g)
	}
	if len(panicBlk.Succs) != 1 || panicBlk.Succs[0] != g.Exit {
		t.Fatalf("panic block succs = %v, want only the exit block: %s", panicBlk.Succs, g)
	}
}

// TestPanicMakesFollowersUnreachable: nodes after an unconditional
// panic are kept (for inspection) but not reachable from entry.
func TestPanicMakesFollowersUnreachable(t *testing.T) {
	g := parse(t, `func f() {
	setup()
	panic("always")
	use()
}`)
	seen := reachable(g)
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			es, ok := n.(*ast.ExprStmt)
			if !ok {
				continue
			}
			call, ok := es.X.(*ast.CallExpr)
			if !ok {
				continue
			}
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "use" && seen[b] {
				t.Fatalf("use() after an unconditional panic is reachable: %s", g)
			}
		}
	}
	if reachableNodes(g) != 2 { // setup() and panic() only
		t.Fatalf("reachable node count = %d, want 2: %s", reachableNodes(g), g)
	}
}

// TestDeferStaysStraightLine: a defer statement is an ordinary node of
// its block (a path-sensitive pass collects deferred calls from the
// path state, not from special edges), and a defer after Lock shares
// the Lock's block.
func TestDeferStaysStraightLine(t *testing.T) {
	g := parse(t, `func f() {
	mu.Lock()
	defer mu.Unlock()
	work()
}`)
	if len(g.Entry.Nodes) != 3 {
		t.Fatalf("entry has %d nodes, want Lock+defer+work in one block: %s", len(g.Entry.Nodes), g)
	}
	hasDefer := false
	for _, n := range g.Entry.Nodes {
		if _, ok := n.(*ast.DeferStmt); ok {
			hasDefer = true
		}
	}
	if !hasDefer {
		t.Fatalf("entry block lost the DeferStmt node: %s", g)
	}
}

// TestConditionalDeferOnOwnPath: a defer inside an if-branch appears
// only in that branch's block, so a path-sensitive pass sees paths on
// which the defer never registered.
func TestConditionalDeferOnOwnPath(t *testing.T) {
	g := parse(t, `func f(x bool) {
	mu.Lock()
	if x {
		defer mu.Unlock()
	}
	work()
}`)
	deferBlocks := 0
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			if _, ok := n.(*ast.DeferStmt); ok {
				deferBlocks++
				if b.Kind != "if.then" {
					t.Fatalf("DeferStmt in %q block, want if.then: %s", b.Kind, g)
				}
			}
		}
	}
	if deferBlocks != 1 {
		t.Fatalf("found %d defer nodes, want 1: %s", deferBlocks, g)
	}
}

// TestPanicAndReturnShareExit: every function-leaving path — fallthrough,
// return, panic — converges on the single Exit block, which is what lets
// an exit-edge pass apply deferred releases exactly once per path.
func TestPanicAndReturnShareExit(t *testing.T) {
	g := parse(t, `func f(n int) int {
	if n < 0 {
		panic("negative")
	}
	if n == 0 {
		return 0
	}
	return n + 1
}`)
	in := edgesInto(g, g.Exit)
	if len(in) != 3 {
		t.Fatalf("%d blocks edge into exit, want 3 (panic, return 0, return n+1): %s", len(in), g)
	}
}
