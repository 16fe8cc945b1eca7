// Package cfg builds intraprocedural control-flow graphs over go/ast
// function bodies, in the spirit of golang.org/x/tools/go/cfg but built
// only on the standard library so the repository stays dependency-free.
//
// The graph is deliberately simple: a Graph is a list of basic Blocks,
// each holding the ast.Nodes that execute in order when control reaches
// the block, plus successor edges. Conditions (if/for/switch tags) are
// recorded as nodes of the block that evaluates them, and a RangeStmt
// appears as a node of its own loop-header block, so a dataflow pass
// walking block nodes in order sees every expression exactly where it
// is evaluated.
//
// The builder covers the statements that appear in straight Go code:
// if/else, for (including range), switch and type switch (including
// fallthrough), select, labeled break/continue, return, and goto.
// Goto edges are resolved to the labeled statement's block (forward or
// backward), so a loop formed by a backward goto appears as a real
// cycle in the graph — LoopBlocks sees it the same way it sees a for
// loop. Function literals are NOT descended into: a closure body is
// its own flow graph and is built separately by the caller.
package cfg

import (
	"fmt"
	"go/ast"
	"strings"
)

// A Block is a maximal straight-line sequence of AST nodes. Control
// enters at the first node and leaves to one of Succs after the last.
type Block struct {
	// Index is the position in Graph.Blocks (stable across builds of
	// the same body; useful as a worklist key).
	Index int
	// Kind describes why the block exists ("entry", "if.then",
	// "for.body", "range.loop", …) for debugging output.
	Kind string
	// Nodes holds statements and evaluated expressions in execution
	// order. Entries are *ast.ExprStmt, *ast.AssignStmt, …, or bare
	// ast.Expr for conditions and switch tags, or *ast.RangeStmt for a
	// range-loop header.
	Nodes []ast.Node
	// Succs are the possible successor blocks.
	Succs []*Block
}

// A Graph is the control-flow graph of one function body.
type Graph struct {
	// Entry is the block control enters first.
	Entry *Block
	// Exit is the synthetic block every function-leaving edge targets:
	// falling off the end, return statements, and direct panic calls.
	// A pass that must act on "every way out of the function" checks
	// for edges into Exit rather than pattern-matching return
	// statements itself.
	Exit *Block
	// Blocks lists every block, Entry first. Unreachable blocks are
	// kept (they still hold nodes a dataflow pass may want to see).
	Blocks []*Block
}

// Build constructs the CFG of a function body. A nil body (declaration
// without definition) yields a graph with a single empty entry block.
func Build(body *ast.BlockStmt) *Graph {
	b := &builder{}
	entry := b.newBlock("entry")
	exit := b.newBlock("exit")
	b.exit = exit
	cur := entry
	if body != nil {
		cur = b.stmtList(cur, body.List)
	}
	b.edge(cur, exit)
	return &Graph{Entry: entry, Exit: exit, Blocks: b.blocks}
}

// String renders the graph compactly for tests and debugging:
// "0(entry)->1,2 …".
func (g *Graph) String() string {
	var sb strings.Builder
	for _, blk := range g.Blocks {
		fmt.Fprintf(&sb, "%d(%s,%d)->", blk.Index, blk.Kind, len(blk.Nodes))
		for i, s := range blk.Succs {
			if i > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%d", s.Index)
		}
		sb.WriteByte(' ')
	}
	return strings.TrimSpace(sb.String())
}

type builder struct {
	blocks []*Block
	exit   *Block
	// branch targets for break/continue, innermost last.
	targets []target
	// labels maps a label name to the block its labeled statement
	// starts in. Entries are created on first mention — by the
	// LabeledStmt itself or by a forward goto — so goto edges always
	// have a concrete target block.
	labels map[string]*Block
}

type target struct {
	label     string // "" for unlabeled loops/switches
	brk, cont *Block // cont is nil for switch/select
}

func (b *builder) newBlock(kind string) *Block {
	blk := &Block{Index: len(b.blocks), Kind: kind}
	b.blocks = append(b.blocks, blk)
	return blk
}

// edge links from → to unless from is nil (unreachable flow).
func (b *builder) edge(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	from.Succs = append(from.Succs, to)
}

// add appends a node to the current block; a nil current block (code
// after return/break) gets a fresh unreachable block so nodes are never
// dropped from the graph.
func (b *builder) add(cur *Block, n ast.Node) *Block {
	if cur == nil {
		cur = b.newBlock("unreachable")
	}
	cur.Nodes = append(cur.Nodes, n)
	return cur
}

// stmtList threads the statements through the graph, returning the
// block that falls through the end (nil if control cannot).
func (b *builder) stmtList(cur *Block, list []ast.Stmt) *Block {
	for _, s := range list {
		cur = b.stmt(cur, s, "")
	}
	return cur
}

// stmt extends the graph with one statement. label is the non-empty
// label name when the statement is the body of a LabeledStmt.
func (b *builder) stmt(cur *Block, s ast.Stmt, label string) *Block {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return b.stmtList(cur, s.List)

	case *ast.LabeledStmt:
		// The label belongs to the inner statement (loop/switch). The
		// labeled statement also starts a fresh block so goto edges —
		// including backward gotos that form loops — have a stable
		// target.
		blk := b.labelBlock(s.Label.Name)
		b.edge(cur, blk)
		return b.stmt(blk, s.Stmt, s.Label.Name)

	case *ast.IfStmt:
		if s.Init != nil {
			cur = b.add(cur, s.Init)
		}
		cur = b.add(cur, s.Cond)
		then := b.newBlock("if.then")
		b.edge(cur, then)
		thenEnd := b.stmtList(then, s.Body.List)
		done := b.newBlock("if.done")
		b.edge(thenEnd, done)
		if s.Else != nil {
			els := b.newBlock("if.else")
			b.edge(cur, els)
			elseEnd := b.stmt(els, s.Else, "")
			b.edge(elseEnd, done)
		} else {
			b.edge(cur, done)
		}
		return done

	case *ast.ForStmt:
		if s.Init != nil {
			cur = b.add(cur, s.Init)
		}
		head := b.newBlock("for.head")
		b.edge(cur, head)
		if s.Cond != nil {
			head.Nodes = append(head.Nodes, s.Cond)
		}
		body := b.newBlock("for.body")
		done := b.newBlock("for.done")
		b.edge(head, body)
		if s.Cond != nil {
			b.edge(head, done) // condition false
		}
		post := b.newBlock("for.post")
		if s.Post != nil {
			post.Nodes = append(post.Nodes, s.Post)
		}
		b.push(label, done, post)
		bodyEnd := b.stmtList(body, s.Body.List)
		b.pop()
		b.edge(bodyEnd, post)
		b.edge(post, head)
		return done

	case *ast.RangeStmt:
		head := b.newBlock("range.head")
		b.edge(cur, head)
		// The RangeStmt node itself marks the per-iteration key/value
		// assignment; a dataflow pass treats it as the loop's source.
		head.Nodes = append(head.Nodes, s)
		body := b.newBlock("range.body")
		done := b.newBlock("range.done")
		b.edge(head, body)
		b.edge(head, done)
		b.push(label, done, head)
		bodyEnd := b.stmtList(body, s.Body.List)
		b.pop()
		b.edge(bodyEnd, head)
		return done

	case *ast.SwitchStmt:
		if s.Init != nil {
			cur = b.add(cur, s.Init)
		}
		if s.Tag != nil {
			cur = b.add(cur, s.Tag)
		}
		return b.switchBody(cur, label, s.Body, func(c ast.Stmt) []ast.Node {
			cc := c.(*ast.CaseClause)
			nodes := make([]ast.Node, 0, len(cc.List))
			for _, e := range cc.List {
				nodes = append(nodes, e)
			}
			return nodes
		}, func(c ast.Stmt) []ast.Stmt { return c.(*ast.CaseClause).Body },
			func(c ast.Stmt) bool { return c.(*ast.CaseClause).List == nil })

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			cur = b.add(cur, s.Init)
		}
		cur = b.add(cur, s.Assign)
		return b.switchBody(cur, label, s.Body, func(c ast.Stmt) []ast.Node {
			return nil // type lists carry no evaluated expressions
		}, func(c ast.Stmt) []ast.Stmt { return c.(*ast.CaseClause).Body },
			func(c ast.Stmt) bool { return c.(*ast.CaseClause).List == nil })

	case *ast.SelectStmt:
		return b.switchBody(cur, label, s.Body, func(c ast.Stmt) []ast.Node {
			cc := c.(*ast.CommClause)
			if cc.Comm != nil {
				return []ast.Node{cc.Comm}
			}
			return nil
		}, func(c ast.Stmt) []ast.Stmt { return c.(*ast.CommClause).Body },
			func(c ast.Stmt) bool { return c.(*ast.CommClause).Comm == nil })

	case *ast.BranchStmt:
		return b.branch(cur, s)

	case *ast.ReturnStmt:
		cur = b.add(cur, s)
		b.edge(cur, b.exit)
		return nil

	case *ast.ExprStmt:
		// A direct call to the panic builtin leaves the function (to a
		// recovering caller, if any): it ends the block with an exit
		// edge, exactly like a return, so deferred cleanup analyses see
		// the panic path and value analyses drop facts from the dead
		// fall-through. Only the unshadowed builtin spelling is
		// recognized; a call through a variable named panic is not Go
		// anyone writes.
		if isPanicCall(s.X) {
			cur = b.add(cur, s)
			b.edge(cur, b.exit)
			return nil
		}
		return b.add(cur, s)

	default:
		// Assignments, declarations, expression statements, go/defer,
		// sends, inc/dec, empty statements: straight-line nodes.
		return b.add(cur, s)
	}
}

// switchBody builds the shared shape of switch / type switch / select:
// every clause is a branch out of cur; a missing default adds a
// fall-past edge. caseNodes extracts the evaluated expressions of a
// clause, caseStmts its body, isDefault whether it is the default.
func (b *builder) switchBody(cur *Block, label string, body *ast.BlockStmt,
	caseNodes func(ast.Stmt) []ast.Node, caseStmts func(ast.Stmt) []ast.Stmt,
	isDefault func(ast.Stmt) bool) *Block {
	done := b.newBlock("switch.done")
	b.push(label, done, nil)
	hasDefault := false
	var caseBlocks []*Block
	for _, c := range body.List {
		blk := b.newBlock("switch.case")
		b.edge(cur, blk)
		blk.Nodes = append(blk.Nodes, caseNodes(c)...)
		if isDefault(c) {
			hasDefault = true
		}
		caseBlocks = append(caseBlocks, blk)
	}
	for i, c := range body.List {
		end := b.stmtListFallthrough(caseBlocks[i], caseStmts(c), caseBlocks, i)
		b.edge(end, done)
	}
	if !hasDefault {
		b.edge(cur, done)
	}
	b.pop()
	return done
}

// stmtListFallthrough is stmtList plus `fallthrough` handling: a
// trailing fallthrough redirects the fallthrough edge to the next
// case's body block.
func (b *builder) stmtListFallthrough(cur *Block, list []ast.Stmt, cases []*Block, i int) *Block {
	for _, s := range list {
		if br, ok := s.(*ast.BranchStmt); ok && br.Tok.String() == "fallthrough" {
			if i+1 < len(cases) {
				b.edge(cur, cases[i+1])
			}
			return nil
		}
		cur = b.stmt(cur, s, "")
	}
	return cur
}

// branch resolves break/continue/goto. Goto edges go to the labeled
// statement's block (created on demand for forward gotos), so a
// backward goto produces a genuine cycle; a goto with no label (never
// legal Go) degrades to an exit edge.
func (b *builder) branch(cur *Block, s *ast.BranchStmt) *Block {
	name := ""
	if s.Label != nil {
		name = s.Label.Name
	}
	switch s.Tok.String() {
	case "break":
		if t := b.find(name, false); t != nil {
			b.edge(cur, t.brk)
		}
	case "continue":
		if t := b.find(name, true); t != nil {
			b.edge(cur, t.cont)
		}
	case "goto":
		if name == "" {
			b.edge(cur, b.exit)
		} else {
			b.edge(cur, b.labelBlock(name))
		}
	case "fallthrough":
		// Handled by stmtListFallthrough; a stray one ends the block.
	}
	return nil
}

// isPanicCall reports whether e is a direct call of the panic builtin.
func isPanicCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := call.Fun.(*ast.Ident)
	return ok && id.Name == "panic"
}

// labelBlock returns the block for the named label, creating it when
// the label has not been seen yet (a forward goto mentions the label
// before its statement is built).
func (b *builder) labelBlock(name string) *Block {
	if b.labels == nil {
		b.labels = make(map[string]*Block)
	}
	blk, ok := b.labels[name]
	if !ok {
		blk = b.newBlock("label." + name)
		b.labels[name] = blk
	}
	return blk
}

// LoopBlocks returns the set of blocks that lie on a cycle of the
// graph: the bodies, headers and post blocks of for/range loops, and
// any region a backward goto re-enters. A pass deciding "does this
// node execute inside a loop" checks membership of the node's block.
// The computation is Tarjan's SCC algorithm over blocks — a block is a
// loop block iff its component has more than one member or it has a
// self edge.
func (g *Graph) LoopBlocks() map[*Block]bool {
	n := len(g.Blocks)
	index := make([]int, n) // 0 = unvisited; otherwise order+1
	lowlink := make([]int, n)
	onStack := make([]bool, n)
	comp := make([]int, n) // component id per block; -1 = unassigned
	for i := range comp {
		comp[i] = -1
	}
	var stack []int
	counter := 0
	comps := 0
	compSize := make(map[int]int)

	// Iterative Tarjan: a frame is (block, next-successor-to-visit).
	type frame struct{ b, succ int }
	for root := range g.Blocks {
		if index[root] != 0 {
			continue
		}
		work := []frame{{root, 0}}
		counter++
		index[root], lowlink[root] = counter, counter
		stack = append(stack, root)
		onStack[root] = true
		for len(work) > 0 {
			f := &work[len(work)-1]
			b := g.Blocks[f.b]
			if f.succ < len(b.Succs) {
				s := b.Succs[f.succ].Index
				f.succ++
				if index[s] == 0 {
					counter++
					index[s], lowlink[s] = counter, counter
					stack = append(stack, s)
					onStack[s] = true
					work = append(work, frame{s, 0})
				} else if onStack[s] && index[s] < lowlink[f.b] {
					lowlink[f.b] = index[s]
				}
				continue
			}
			// Frame done: pop, fold lowlink into the parent, and emit
			// the component if this block is its root.
			v := f.b
			work = work[:len(work)-1]
			if len(work) > 0 {
				p := work[len(work)-1].b
				if lowlink[v] < lowlink[p] {
					lowlink[p] = lowlink[v]
				}
			}
			if lowlink[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = comps
					compSize[comps]++
					if w == v {
						break
					}
				}
				comps++
			}
		}
	}

	loops := make(map[*Block]bool)
	for i, blk := range g.Blocks {
		if compSize[comp[i]] > 1 {
			loops[blk] = true
			continue
		}
		for _, s := range blk.Succs {
			if s == blk {
				loops[blk] = true
				break
			}
		}
	}
	return loops
}

// find returns the innermost target matching the label; continue
// targets must have a loop (cont != nil).
func (b *builder) find(label string, needCont bool) *target {
	for i := len(b.targets) - 1; i >= 0; i-- {
		t := &b.targets[i]
		if needCont && t.cont == nil {
			continue
		}
		if label == "" || t.label == label {
			return t
		}
	}
	return nil
}

func (b *builder) push(label string, brk, cont *Block) {
	b.targets = append(b.targets, target{label: label, brk: brk, cont: cont})
}

func (b *builder) pop() {
	b.targets = b.targets[:len(b.targets)-1]
}
