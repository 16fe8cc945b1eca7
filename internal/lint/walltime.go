package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// wallTimePackages names the simulation packages (by package name, so
// fixtures can opt in by declaring the same name) in which wall-clock
// readings must never reach simulation state or statistics. Simulated
// time in those packages is a float64 of hours advanced by the event
// queue; mixing in time.Now makes a run's numbers depend on host speed
// and scheduling, destroying seed-for-seed reproducibility.
var wallTimePackages = map[string]bool{
	"sim":       true,
	"syssim":    true,
	"poolsim":   true,
	"burst":     true,
	"splitting": true,
}

// WallTime reports wall-clock values (time.Now, time.Since and data
// derived from them) flowing into simulation state inside the
// simulation packages: stored into a struct field or element, folded
// into an accumulator, returned, or passed to another module function.
//
// Wall-clock use remains legal where it belongs — progress reporting
// and deadlines in CLI code (any package outside the restricted set),
// and, inside the restricted set, calls into the standard library such
// as fmt progress lines or context deadline plumbing, and pure
// comparisons that never store the reading.
var WallTime = &Analyzer{
	Name: "walltime",
	Doc:  "forbid wall-clock readings from reaching simulation state or statistics",
	Run:  runWallTime,
}

func runWallTime(pass *Pass) error {
	if !wallTimePackages[pass.Pkg.Name()] {
		return nil
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkWallTimeBody(pass, pass.FuncTaint(fd), fd.Body)
		}
	}
	return nil
}

func checkWallTimeBody(pass *Pass, ft *FuncTaint, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			checkWallTimeBody(pass, pass.FuncLitTaint(n), n.Body)
			return false
		case *ast.AssignStmt:
			checkWallTimeAssign(pass, ft, n)
		case *ast.ReturnStmt:
			for _, e := range n.Results {
				if ft.Of(e)&TaintWallTime != 0 {
					pass.Report(n.Pos(),
						"wall-clock reading returned from simulation code; derive durations from simulated time")
					break
				}
			}
		case *ast.CallExpr:
			checkWallTimeCall(pass, ft, n)
		}
		return true
	})
}

// checkWallTimeAssign flags wall-clock data landing in state: any store
// through a field, index or pointer, and any compound accumulation.
func checkWallTimeAssign(pass *Pass, ft *FuncTaint, a *ast.AssignStmt) {
	tainted := false
	for _, rhs := range a.Rhs {
		if ft.Of(rhs)&TaintWallTime != 0 {
			tainted = true
			break
		}
	}
	if !tainted {
		return
	}
	if a.Tok != token.ASSIGN && a.Tok != token.DEFINE {
		pass.Report(a.Pos(),
			"wall-clock reading accumulated into simulation statistics; use simulated time")
		return
	}
	for _, lhs := range a.Lhs {
		switch ast.Unparen(lhs).(type) {
		case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
			pass.Report(a.Pos(),
				"wall-clock reading stored into simulation state; use simulated time")
			return
		}
	}
}

// checkWallTimeCall flags wall-clock data handed to another function of
// this module: once it crosses a call boundary inside the simulation
// packages it is treated as entering state. Standard-library callees
// (fmt progress lines, context plumbing, time arithmetic) stay legal.
//
// The obs package is the one sanctioned in-module sink. Its metrics and
// progress cells are write-only from the engines' point of view — no
// simulation code ever reads them back — so a wall-clock duration
// flowing into an obs span or progress task can influence operator
// dashboards but never a simulated result. Exempting the package here
// keeps the invariant honest without scattering allow directives over
// every instrumentation site.
func checkWallTimeCall(pass *Pass, ft *FuncTaint, call *ast.CallExpr) {
	name := calleeName(pass.Info, call)
	if !strings.HasPrefix(name, "mlec/") {
		return
	}
	if fn := calleeFunc(pass.Info, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Name() == "obs" {
		return
	}
	for _, arg := range call.Args {
		if ft.Of(arg)&TaintWallTime != 0 {
			pass.Report(arg.Pos(),
				"wall-clock reading passed into %s from simulation code; pass simulated time instead", name)
			return
		}
	}
}
