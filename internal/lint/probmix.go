package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ProbMix is the probflow analyzer for domain confusion: adding,
// subtracting or comparing values that live on incompatible numeric
// scales — a log-domain probability against a linear one, a rate
// against a probability, a count against either. Every headline number
// this repository reproduces is a rare-event probability whose
// magnitude (1e-15 and below) makes such mixes numerically silent: the
// sum is finite, plausible, and wrong in every digit, and no
// tolerance-based test catches it.
//
// Domains are inferred by the whole-program domain engine
// (domainflow.go, facts.go): seeded from declaration names
// (p/pdl/φ → prob, λ/μ/rate → rate, log*/ln* → logprob), from standard
// sources (math.Log, math.Exp, rand.Float64), and from explicit
// //mlec:unit annotations; call results come from the eager bottom-up
// summaries, so a mix through three helpers and a package boundary is
// still caught.
//
// Reported sites:
//
//   - x+y, x−y, and comparisons where both operand domains are known
//     and differ;
//   - assignments, composite-literal fields, and returns whose
//     destination has a declared domain (annotation or name) that
//     contradicts the computed domain of the value.
var ProbMix = &Analyzer{
	Name: "probmix",
	Doc:  "forbid arithmetic or comparisons mixing incompatible numeric domains (prob, logprob, rate, count, weight)",
	Run:  runProbMix,
}

func runProbMix(pass *Pass) error {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkProbMixBody(pass, pass.FuncDomains(fd), fd.Body, fd)
		}
	}
	return nil
}

func checkProbMixBody(pass *Pass, doms *FuncDomains, body *ast.BlockStmt, fd *ast.FuncDecl) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			checkProbMixBody(pass, pass.FuncLitDomains(n), n.Body, nil)
			return false
		case *ast.BinaryExpr:
			checkProbMixBinary(pass, doms, n)
		case *ast.AssignStmt:
			checkProbMixAssign(pass, doms, n)
		case *ast.CompositeLit:
			checkProbMixComposite(pass, doms, n)
		case *ast.ReturnStmt:
			if fd != nil {
				checkProbMixReturn(pass, doms, n, fd)
			}
		}
		return true
	})
}

// mixable reports operators whose operands must share a domain:
// addition and subtraction (the sum of a log and a linear value is
// meaningless) and ordered/equality comparisons (a rate is not larger
// or smaller than a probability). Multiplication and division compose
// domains legitimately and are handled by the engine's algebra instead.
func mixableOp(op token.Token) bool {
	switch op {
	case token.ADD, token.SUB,
		token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
		return true
	}
	return false
}

// concrete reports a domain an analyzer may claim: known and not the
// Mixed top (already-poisoned values never re-report).
func concrete(v Domain) bool {
	return v != DomNone && v != DomMixed
}

func checkProbMixBinary(pass *Pass, doms *FuncDomains, e *ast.BinaryExpr) {
	if !mixableOp(e.Op) {
		return
	}
	x, y := doms.Of(e.X), doms.Of(e.Y)
	if !concrete(x) || !concrete(y) || x == y {
		return
	}
	verb := "mixes"
	if e.Op != token.ADD && e.Op != token.SUB {
		verb = "compares"
	}
	fix := "convert one side first"
	if (x == DomLogProb) != (y == DomLogProb) {
		fix = "use math.Exp/math.Log to move both into one domain"
	}
	pass.Report(e.OpPos, "%s %s and %s values; %s", verb, x, y, fix)
}

// checkProbMixAssign flags x = e and x op= e where x's declared domain
// (annotation or name) contradicts the computed domain of e.
func checkProbMixAssign(pass *Pass, doms *FuncDomains, a *ast.AssignStmt) {
	if a.Tok != token.ASSIGN && a.Tok != token.DEFINE {
		return
	}
	if len(a.Lhs) != len(a.Rhs) {
		return
	}
	for i, l := range a.Lhs {
		obj := assignedObject(pass.Info, l)
		declared := seedObject(pass.Facts.units, pass.Facts.fset, obj)
		v := doms.Of(a.Rhs[i])
		if !concrete(declared) || !concrete(v) || declared == v {
			continue
		}
		pass.Report(a.Rhs[i].Pos(), "assigns a %s value to %s (declared %s)",
			v, obj.Name(), declared)
	}
}

// assignedObject resolves the object a plain identifier assignment
// targets (selector/index destinations are container writes the engine
// handles weakly, not declaration contracts).
func assignedObject(info *types.Info, lhs ast.Expr) types.Object {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	return info.ObjectOf(id)
}

// checkProbMixComposite flags struct-literal fields whose declared
// domain contradicts the value: Result{AnnualPDL: lossRate} is exactly
// the confusion the field name exists to prevent.
func checkProbMixComposite(pass *Pass, doms *FuncDomains, lit *ast.CompositeLit) {
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		field := pass.Info.Uses[key]
		if field == nil {
			continue
		}
		declared := seedObject(pass.Facts.units, pass.Facts.fset, field)
		v := doms.Of(kv.Value)
		if !concrete(declared) || !concrete(v) || declared == v {
			continue
		}
		pass.Report(kv.Value.Pos(), "field %s (declared %s) initialized with a %s value",
			field.Name(), declared, v)
	}
}

// checkProbMixReturn flags returns whose value's domain contradicts the
// function's declared result domain.
func checkProbMixReturn(pass *Pass, doms *FuncDomains, ret *ast.ReturnStmt, fd *ast.FuncDecl) {
	if len(ret.Results) == 0 {
		return
	}
	fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
	if !ok {
		return
	}
	declared := pass.Facts.declSeed(fn, fd)
	if !concrete(declared) || declared == DomCount {
		// Integer results are all counts; re-reporting them is noise.
		return
	}
	v := doms.Of(ret.Results[0])
	if !concrete(v) || declared == v {
		return
	}
	pass.Report(ret.Results[0].Pos(), "%s (declared %s) returns a %s value",
		fd.Name.Name, declared, v)
}
