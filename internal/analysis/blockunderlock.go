package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// BlockUnderLock forbids blocking operations while holding a mutex that the
// serving path can contend on. A lock key is serving-reachable when any
// Search-family entry point (Search, SearchContext, SearchBatch,
// SearchBatchContext, ServeHTTP) in the unit or its
// module-internal dependencies may acquire it; blocking under such a lock
// stalls every concurrent search, which is precisely the latency cliff the
// paper's serving argument (§2) must avoid. Blocking means: a channel send
// or receive outside a select with default, a select without default,
// time.Sleep, sync.Cond.Wait outside its for-loop idiom, WaitGroup.Wait,
// file/network I/O, HTTP round-trips — directly or through any
// module-internal call chain (the witness for -why). Locks held only by
// background maintenance (the lsm compactor's cmu) are not serving-reachable
// and stay exempt.
var BlockUnderLock = &Analyzer{
	Name: "blockunderlock",
	Doc:  "no blocking operations (channel ops, I/O, sleeps, waits) while holding a mutex reachable from the serving path",
	Run:  runBlockUnderLock,
}

func runBlockUnderLock(pass *Pass) {
	if !servingScope(pass.Path) {
		return
	}
	g := pass.Graph()
	serving := servingLockKeys(g)
	if len(serving) == 0 {
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
			checkBlockUnderLock(pass, g, fd, serving)
		}
	}
}

// servingLockKeys unions the locksets transitively acquirable from each
// serving entry point in the graph.
func servingLockKeys(g *callGraph) map[lockKey]bool {
	keys := map[lockKey]bool{}
	for fn := range g.nodes {
		switch fn.Name() {
		case "Search", "SearchContext", "SearchBatch", "SearchBatchContext", "ServeHTTP":
			for k := range g.mayAcquire(fn) {
				keys[k] = true
			}
		}
	}
	return keys
}

func checkBlockUnderLock(pass *Pass, g *callGraph, fd *ast.FuncDecl, serving map[lockKey]bool) {
	reported := map[token.Pos]bool{}
	report := func(pos token.Pos, witness []string, format string, args ...interface{}) {
		if reported[pos] {
			return
		}
		reported[pos] = true
		pass.ReportWitness(pos, witness, format, args...)
	}
	// servingHeld picks one serving-reachable held lock (the witness lock).
	servingHeld := func(held lockState) (lockKey, *heldLock) {
		for k, h := range held {
			if serving[k] {
				return k, h
			}
		}
		return "", nil
	}
	walkFuncFlow(pass.Info, fd.Body, flowHooks{
		onBlock: func(pos token.Pos, desc string, held lockState) {
			k, h := servingHeld(held)
			if h == nil {
				return
			}
			report(pos, []string{
				withPos(g, h.op.pos, k.short()+" acquired here (serving-reachable)"),
				withPos(g, pos, desc+" while holding it"),
			}, "%s while holding %s blocks the serving path (%s acquired at %s)",
				desc, k.short(), k.short(), g.posStr(h.op.pos))
		},
		onCall: func(call *ast.CallExpr, deferred bool, held lockState, loopDepth int) {
			if deferred {
				return // runs at exit, after manual releases
			}
			k, h := servingHeld(held)
			if h == nil {
				return
			}
			callee := g.staticCallee(pass.Info, call)
			if callee == nil {
				return // dynamic call: no summary (documented limit)
			}
			if isCondWait(callee) && loopDepth > 0 {
				return // the `for !cond { c.Wait() }` idiom is the law
			}
			var bi *blockInfo
			if direct := blockingStdlibCall(callee); direct != nil {
				bi = direct
			} else if g.nodeFor(callee) != nil {
				bi = g.mayBlock(callee)
			}
			if bi == nil {
				return
			}
			report(call.Pos(), append([]string{
				withPos(g, h.op.pos, k.short()+" acquired here (serving-reachable)"),
				withPos(g, call.Pos(), "calls "+funcLabel(callee)),
			}, bi.chain...),
				"call to %s may block (%s) while holding %s: the serving path stalls behind it (%s acquired at %s)",
				funcLabel(callee), bi.desc, k.short(), k.short(), g.posStr(h.op.pos))
		},
	})
}

func isCondWait(fn *types.Func) bool {
	return fn.Pkg() != nil && fn.Pkg().Path() == "sync" &&
		fn.Name() == "Wait" && recvTypeName(fn) == "Cond"
}
