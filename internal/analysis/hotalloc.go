package analysis

import (
	"go/ast"
	"go/types"
)

// hotAlloc machine-checks the paper's §3.3–3.4 discipline on the kernel
// packages (scopes["hotalloc"]): the innermost loops of internal/edit,
// internal/scan (both sweeps included), internal/trie and internal/lsm
// (its loops around a sweep) — the code that runs once per compared pair,
// per trie edge or per filtered candidate — must not copy strings through
// string([]byte)/[]byte(string) conversions and must not allocate closures.
// In loops that invoke a comparison kernel (a call into internal/edit, a
// scan.Probe method or scan.Loose.Sweep), fmt calls and the allocation builtins make/new are
// additionally flagged — "allocate a scratch buffer per element" is the
// classic regression — and so are calls to module-internal functions whose
// own body allocates at a guard-free position: hiding the make one call deep
// does not get past the gate. Construction and serialization loops are
// exempt from the latter checks because they never call a kernel; in
// internal/lsm, whose other innermost loops read and write segment files and
// the log, only kernel loops are checked at all.
var hotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "no string<->[]byte conversions, closures, fmt calls, or per-element make/new — direct or one call deep — in the innermost kernel loops of internal/edit, internal/scan, internal/trie, internal/lsm",
	Run:  runHotAlloc,
}

func runHotAlloc(pass *Pass) {
	if !inScope(pass.Path, "hotalloc") {
		return
	}
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			body := loopBody(n)
			if body == nil || !isInnermost(body) {
				return true
			}
			checkHotLoop(pass, body, inScope(pass.Path, "hotalloc-kernel-loops-only"))
			return true
		})
	}
}

// loopBody returns the body of a for/range statement, or nil.
func loopBody(n ast.Node) *ast.BlockStmt {
	switch l := n.(type) {
	case *ast.ForStmt:
		return l.Body
	case *ast.RangeStmt:
		return l.Body
	}
	return nil
}

// isInnermost reports whether the loop body contains no nested loop.
func isInnermost(body *ast.BlockStmt) bool {
	inner := false
	ast.Inspect(body, func(n ast.Node) bool {
		if inner {
			return false
		}
		if loopBody(n) != nil {
			inner = true
			return false
		}
		return true
	})
	return !inner
}

// checkHotLoop reports the §3 violations inside one innermost loop body;
// with kernelOnly, only when the loop calls a kernel.
func checkHotLoop(pass *Pass, body *ast.BlockStmt, kernelOnly bool) {
	// Allocation builtins are only a finding in loops that do per-element
	// kernel work.
	kernelLoop := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isKernelCall(pass.Info, call) {
			kernelLoop = true
			return false
		}
		return true
	})
	if kernelOnly && !kernelLoop {
		return
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(e.Pos(),
				"closure allocated inside an innermost kernel loop: hoist it out of the loop (§3.4 simple types)")
			return false // the closure body is not the loop's hot path
		case *ast.CallExpr:
			if tv, ok := pass.Info.Types[e.Fun]; ok && tv.IsType() {
				if len(e.Args) == 1 && isStringByteConversion(pass.Info, e) {
					pass.Reportf(e.Pos(),
						"string<->[]byte conversion inside an innermost kernel loop copies the data per element (§3.3 references)")
				}
				return true
			}
			if fn, ok := calleeObject(pass.Info, e).(*types.Func); ok &&
				fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && kernelLoop {
				pass.Reportf(e.Pos(),
					"fmt.%s inside an innermost kernel loop allocates and boxes per element (§3.4 simple types)", fn.Name())
			}
			if kernelLoop {
				if id, ok := ast.Unparen(e.Fun).(*ast.Ident); ok {
					if b, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin &&
						(b.Name() == "make" || b.Name() == "new") {
						pass.Reportf(e.Pos(),
							"%s inside an innermost kernel loop allocates per element: hoist a reusable scratch buffer (§3.4 simple types)", b.Name())
					}
				}
				checkHiddenAlloc(pass, e)
			}
		}
		return true
	})
}

// checkHiddenAlloc flags calls from a kernel loop to module-internal
// functions whose direct body allocates at a guard-free position — the
// allocation hidden one call deep (allocatesDirect).
func checkHiddenAlloc(pass *Pass, call *ast.CallExpr) {
	fn, ok := calleeObject(pass.Info, call).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return
	}
	g := pass.pkg.bodies()
	if !g.internalPath(fn.Pkg().Path()) || g.nodeFor(fn) == nil {
		return
	}
	ai := g.allocatesDirect(fn)
	if ai == nil {
		return
	}
	pass.Reportf(call.Pos(), "call to %s inside an innermost kernel loop hides an allocation one call deep (%s at %s): hoist it or pass scratch in (§3.4 simple types)",
		funcLabel(fn), ai.desc, g.posStr(ai.pos))
}

// isStringByteConversion reports whether the single-argument conversion call
// converts between string and []byte (either direction).
func isStringByteConversion(info *types.Info, call *ast.CallExpr) bool {
	dst := info.Types[call.Fun].Type
	srcTV, ok := info.Types[call.Args[0]]
	if !ok || dst == nil {
		return false
	}
	return (isString(dst) && isByteSlice(srcTV.Type)) ||
		(isByteSlice(dst) && isString(srcTV.Type))
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.String
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}
