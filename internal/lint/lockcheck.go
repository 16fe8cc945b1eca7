package lint

import "go/ast"

// Lockcheck is the reporting face of the lock-state engine
// (lockstate.go): it re-runs the engine over every declaration with
// the pass's Report wired in, so guarded-field accesses without the
// lock held, double locks, unlocks of unheld mutexes, and locks still
// held (or deferred-released without acquisition) on a return or panic
// edge all surface as findings. Interprocedural composition comes from
// the fact store's lock summaries: calling an unexported helper that
// requires a lock is fine exactly when the lock is held here, and
// calling one that takes a lock internally while already holding it is
// a self-deadlock.
var Lockcheck = &Analyzer{
	Name: "lockcheck",
	Doc:  "enforce mutex discipline: //mlec:guardedby access, double-lock, and lock/unlock balance on every return and panic path",
	Run:  runLockcheck,
}

func runLockcheck(pass *Pass) error {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			e := newLockEngine(pass.Info, pass.Facts, pass.declFunc(fd), fd, pass.Report)
			e.analyze(fd.Body)
		}
	}
	return nil
}
