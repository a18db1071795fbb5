package analysis

import (
	"go/ast"
	"go/types"
)

// noSleepTest flags time-based synchronization in _test.go files. PR 1
// de-flaked the concurrency tests by replacing fixed sleeps with channel
// synchronization; this analyzer keeps them that way:
//
//   - time.Sleep anywhere in a test file;
//   - time.Tick and time.NewTicker anywhere in a test file (ticker-driven
//     polling is a sleep loop in disguise, and time.Tick leaks its ticker);
//   - a bare `<-time.After(d)` receive — a sleep spelled differently. A
//     time.After case inside a multi-case select stays legal: that is the
//     deadline-guard idiom ("result or timeout"), which synchronizes on the
//     real event and only uses the timer as a failure bound.
//
// Deadline-bounded poll loops that genuinely need a sleep between probes
// carry an explained //lint:ignore.
var noSleepTest = &Analyzer{
	Name: "nosleeptest",
	Doc:  "no time.Sleep, time.Tick, time.NewTicker, or bare <-time.After in _test.go files — synchronize with channels, or poll against a deadline with an explained //lint:ignore",
	Run:  runNoSleepTest,
}

func runNoSleepTest(pass *Pass) {
	for _, f := range pass.Files {
		if !pass.InTestFile(f.Pos()) {
			continue
		}
		// Collect the time.After calls that appear as a select comm case
		// alongside at least one other case: the legal deadline-guard idiom.
		legalAfter := map[*ast.CallExpr]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectStmt)
			if !ok || len(sel.Body.List) < 2 {
				return true
			}
			for _, c := range sel.Body.List {
				cc, ok := c.(*ast.CommClause)
				if !ok || cc.Comm == nil {
					continue
				}
				ast.Inspect(cc.Comm, func(m ast.Node) bool {
					if call, ok := m.(*ast.CallExpr); ok && isTimeFunc(pass.Info, call, "After") {
						legalAfter[call] = true
					}
					return true
				})
			}
			return true
		})
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch {
			case isTimeFunc(pass.Info, call, "Sleep"):
				pass.Reportf(call.Pos(),
					"time.Sleep in test: synchronize with channels instead of sleeping (flaky under load)")
			case isTimeFunc(pass.Info, call, "Tick"):
				pass.Reportf(call.Pos(),
					"time.Tick in test: ticker-driven polling is a sleep loop in disguise (and the ticker leaks) — synchronize with channels")
			case isTimeFunc(pass.Info, call, "NewTicker"):
				pass.Reportf(call.Pos(),
					"time.NewTicker in test: ticker-driven polling is a sleep loop in disguise — synchronize with channels")
			case isTimeFunc(pass.Info, call, "After") && !legalAfter[call]:
				pass.Reportf(call.Pos(),
					"bare <-time.After in test is time.Sleep in disguise: select on the real event with an After deadline guard instead")
			}
			return true
		})
	}
}

// isTimeFunc reports whether call statically invokes the package-level
// function time.<name> (methods like (time.Time).After do not count).
func isTimeFunc(info *types.Info, call *ast.CallExpr, name string) bool {
	fn, ok := calleeObject(info, call).(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "time" || fn.Name() != name {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}
