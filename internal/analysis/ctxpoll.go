package analysis

import (
	"go/ast"
	"go/types"
)

// CtxPoll enforces the serving-path cancellation invariant introduced in
// PR 1: inside internal/scan, internal/exec, internal/trie, internal/lsm,
// internal/bitpack, internal/cascade, and internal/distrib, a function
// that has a cancellation signal in scope (a context.Context or a
// chan struct{} cancel channel) must actually poll it in every loop that
// performs per-element comparison work. A compliant loop either
//
//   - selects on the cancel channel / ctx.Done(),
//   - checks ctx.Err(),
//   - delegates by passing the context or cancel channel to a callee,
//   - calls a local closure that does one of the above (the scan package's
//     strided check() helper), or
//   - ranges over one block x[lo:hi] of a slice while the loop directly
//     around it polls once per block (the signature-word sweep in
//     internal/scan: the poll is hoisted out of a loop that is a few
//     instructions per element).
//
// Dataset-scale loops with no cancellation signal in scope (plain Search
// paths) are out of scope: those engines are cancelled by abandonment at the
// core layer, not cooperatively.
var CtxPoll = &Analyzer{
	Name: "ctxpoll",
	Doc:  "comparison loops in functions holding a ctx/cancel signal must poll it at a bounded stride (select on Done, ctx.Err(), or delegation)",
	Run:  runCtxPoll,
}

func runCtxPoll(pass *Pass) {
	if !pathHasSuffix(pass.Path, "internal/scan", "internal/exec", "internal/trie", "internal/lsm",
		"internal/bitpack", "internal/cascade", "internal/distrib") {
		return
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFuncCtxPoll(pass, fd)
		}
	}
}

// checkFuncCtxPoll analyzes one function body (closures included — a loop
// inside a closure still has the enclosing signals in scope).
func checkFuncCtxPoll(pass *Pass, fd *ast.FuncDecl) {
	body := fd.Body
	signals := collectCancelSignals(pass, body)
	// Parameters count even when the body never mentions them: accepting a
	// context and ignoring it is the worst form of the violation.
	for _, field := range fd.Type.Params.List {
		for _, name := range field.Names {
			if v, ok := pass.Info.Defs[name].(*types.Var); ok &&
				(isContextType(v.Type()) || isCancelChanType(v.Type())) {
				signals[pass.Info.Defs[name]] = true
			}
		}
	}
	if len(signals) == 0 {
		return
	}
	closures := collectLocalClosures(pass, body)
	var stack []ast.Node // ancestors of the node being visited, itself last
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		lb := loopBody(n)
		if lb == nil {
			return true
		}
		if loopDoesComparisonWork(pass, lb) && !loopPollsCancellation(pass, lb, signals, closures) &&
			!isBlockOfPolledLoop(pass, stack, signals, closures) {
			pass.Reportf(n.Pos(),
				"comparison loop never polls cancellation although a ctx/cancel signal is in scope: select on Done()/check Err() every bounded stride (see scan.ctxStride), or pass the signal to the callee")
		}
		return true
	})
}

// isBlockOfPolledLoop recognizes the block-strided sweep: the loop on top of
// stack ranges over a two-bound slice expression x[lo:hi] — one block of the
// data, not all of it — and the loop directly around it polls in its own
// statements, so every block starts with a poll.
func isBlockOfPolledLoop(pass *Pass, stack []ast.Node, signals map[types.Object]bool, closures map[types.Object]*ast.FuncLit) bool {
	rng, ok := stack[len(stack)-1].(*ast.RangeStmt)
	if !ok {
		return false
	}
	if block, ok := ast.Unparen(rng.X).(*ast.SliceExpr); !ok || block.Low == nil || block.High == nil {
		return false
	}
	for i := len(stack) - 2; i >= 0; i-- {
		outer := loopBody(stack[i])
		if outer == nil {
			continue
		}
		for _, st := range outer.List {
			if loopBody(st) == nil && pollsIn(pass, st, signals, closures, true) {
				return true
			}
		}
		return false
	}
	return false
}

// collectCancelSignals gathers every object in the function with a
// cancellation shape: context.Context values and chan struct{} channels
// (parameters, locals like `cancel := ctx.Done()`, and captured variables
// used in the body).
func collectCancelSignals(pass *Pass, body *ast.BlockStmt) map[types.Object]bool {
	signals := map[types.Object]bool{}
	add := func(obj types.Object) {
		if obj == nil {
			return
		}
		if v, ok := obj.(*types.Var); ok &&
			(isContextType(v.Type()) || isCancelChanType(v.Type())) {
			signals[obj] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			add(pass.Info.Defs[id])
			add(pass.Info.Uses[id])
		}
		return true
	})
	return signals
}

// collectLocalClosures maps variables assigned a func literal in this body
// (check := func() bool { ... }) to that literal.
func collectLocalClosures(pass *Pass, body *ast.BlockStmt) map[types.Object]*ast.FuncLit {
	out := map[types.Object]*ast.FuncLit{}
	record := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return
		}
		lit, ok := rhs.(*ast.FuncLit)
		if !ok {
			return
		}
		if obj := pass.Info.Defs[id]; obj != nil {
			out[obj] = lit
		} else if obj := pass.Info.Uses[id]; obj != nil {
			out[obj] = lit
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for i := range st.Lhs {
				if i < len(st.Rhs) {
					record(st.Lhs[i], st.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			for i := range st.Names {
				if i < len(st.Values) {
					record(st.Names[i], st.Values[i])
				}
			}
		}
		return true
	})
	return out
}

// loopDoesComparisonWork reports whether the loop body invokes per-element
// engine work: a call into internal/edit, a scan.Probe method or
// internal/bitpack (a distance kernel), a dynamic kernel call through a
// func-typed variable, or an engine Search-family method.
func loopDoesComparisonWork(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isKernelCall(pass.Info, call) || calleeIsPkgFunc(pass.Info, call, "internal/bitpack") {
			found = true
			return false
		}
		switch obj := calleeObject(pass.Info, call).(type) {
		case *types.Var:
			// A call through a func-typed local is comparison work when its
			// signature consumes string/[]byte operands (the scan package's
			// per-strategy kernel) — not for plain callbacks like
			// context.CancelFunc or result emitters.
			if sig, isFunc := obj.Type().Underlying().(*types.Signature); isFunc &&
				signatureTakesStringData(sig) {
				found = true
				return false
			}
		case *types.Func:
			switch obj.Name() {
			case "Search", "SearchContext", "SearchBatch", "SearchHamming", "NearestK":
				if obj.Type().(*types.Signature).Recv() != nil {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// signatureTakesStringData reports whether any parameter is a string or a
// byte slice — the shape of a per-pair comparison kernel.
func signatureTakesStringData(sig *types.Signature) bool {
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		t := params.At(i).Type()
		if isString(t) || isByteSlice(t) {
			return true
		}
	}
	return false
}

// loopPollsCancellation reports whether the loop body contains a cancellation
// poll or delegates the signal to a callee.
func loopPollsCancellation(pass *Pass, body *ast.BlockStmt, signals map[types.Object]bool, closures map[types.Object]*ast.FuncLit) bool {
	return pollsIn(pass, body, signals, closures, true)
}

// pollsIn is the recursive worker; expandClosures is consumed by one level of
// local-closure expansion so mutually-referencing closures cannot loop.
func pollsIn(pass *Pass, root ast.Node, signals map[types.Object]bool, closures map[types.Object]*ast.FuncLit, expandClosures bool) bool {
	found := false
	ast.Inspect(root, func(n ast.Node) bool {
		if found {
			return false
		}
		switch e := n.(type) {
		case *ast.CommClause:
			// A select case receiving from a cancel signal (either the
			// channel itself or ctx.Done()).
			if e.Comm != nil {
				ast.Inspect(e.Comm, func(m ast.Node) bool {
					if recv, ok := m.(*ast.UnaryExpr); ok && isSignalRecv(pass, recv, signals) {
						found = true
						return false
					}
					return true
				})
			}
		case *ast.CallExpr:
			// ctx.Err() on a signal.
			if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Err" {
				if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && signals[pass.Info.Uses[id]] {
					found = true
					return false
				}
			}
			// Delegation: a signal (or Done() of one) passed as an argument.
			for _, arg := range e.Args {
				if exprMentionsSignal(pass, arg, signals) {
					found = true
					return false
				}
			}
			// A local closure that itself polls (the check() pattern).
			if expandClosures {
				if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
					if lit := closures[pass.Info.Uses[id]]; lit != nil &&
						pollsIn(pass, lit.Body, signals, closures, false) {
						found = true
						return false
					}
				}
			}
		}
		return true
	})
	return found
}

// isSignalRecv reports whether expr is `<-sig` or `<-ctx.Done()` for a
// tracked signal.
func isSignalRecv(pass *Pass, recv *ast.UnaryExpr, signals map[types.Object]bool) bool {
	if recv.Op.String() != "<-" {
		return false
	}
	return exprMentionsSignal(pass, recv.X, signals)
}

// exprMentionsSignal reports whether expr is a tracked signal identifier, a
// field selection resolving to one, or a ctx.Done() call on one.
func exprMentionsSignal(pass *Pass, expr ast.Expr, signals map[types.Object]bool) bool {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		return signals[pass.Info.Uses[e]]
	case *ast.SelectorExpr:
		return signals[pass.Info.Uses[e.Sel]]
	case *ast.CallExpr:
		if sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr); ok && sel.Sel.Name == "Done" {
			return exprMentionsSignal(pass, sel.X, signals)
		}
	}
	return false
}
