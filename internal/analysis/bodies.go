package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// bodyIndex is what hotalloc's one-call-deep rule needs: the declared
// function bodies of one analysis unit plus every module-internal package it
// (transitively) imports, with allocatesDirect memoized per function. Calls
// through func values and interface methods have no body here and are
// assumed not to allocate.
type bodyIndex struct {
	fset       *token.FileSet
	moduleRoot string
	modulePath string
	nodes      map[*types.Func]*funcNode
	allocMemo  map[*types.Func]*allocInfo
}

// funcNode is one declared function body with the types.Info of its unit.
type funcNode struct {
	decl *ast.FuncDecl
	info *types.Info
}

// allocInfo describes a guard-free allocation in a function's direct body.
type allocInfo struct {
	desc string
	pos  token.Pos
}

// bodies builds (once) and returns the unit's body index.
func (p *Package) bodies() *bodyIndex {
	if p.idx != nil {
		return p.idx
	}
	g := &bodyIndex{
		fset:      p.Fset,
		nodes:     map[*types.Func]*funcNode{},
		allocMemo: map[*types.Func]*allocInfo{},
	}
	if p.loader != nil {
		g.moduleRoot = p.loader.ModuleRoot
		g.modulePath = p.loader.ModulePath
	}
	g.add(p.Syntax, p.Info)
	if p.loader != nil && p.Types != nil {
		seen := map[string]bool{}
		var visit func(tp *types.Package)
		visit = func(tp *types.Package) {
			for _, imp := range tp.Imports() {
				path := imp.Path()
				if seen[path] || !g.internalPath(path) {
					continue
				}
				seen[path] = true
				if u := p.loader.pureUnits[path]; u != nil {
					g.add(u.Syntax, u.Info)
				}
				visit(imp)
			}
		}
		visit(p.Types)
	}
	p.idx = g
	return g
}

// internalPath reports whether an import path belongs to this module.
func (g *bodyIndex) internalPath(path string) bool {
	return g.modulePath != "" &&
		(path == g.modulePath || strings.HasPrefix(path, g.modulePath+"/"))
}

func (g *bodyIndex) add(files []*ast.File, info *types.Info) {
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
				g.nodes[fn] = &funcNode{decl: fd, info: info}
			}
		}
	}
}

// nodeFor resolves a callee to its declaration node, mapping instantiated
// generic functions back to their declared origin.
func (g *bodyIndex) nodeFor(fn *types.Func) *funcNode {
	if fn == nil {
		return nil
	}
	if o := fn.Origin(); o != nil {
		fn = o
	}
	return g.nodes[fn]
}

// posStr renders a position module-root-relative.
func (g *bodyIndex) posStr(pos token.Pos) string {
	p := g.fset.Position(pos)
	name := p.Filename
	if g.moduleRoot != "" {
		if rel, ok := strings.CutPrefix(name, g.moduleRoot+"/"); ok {
			name = rel
		}
	}
	return fmt.Sprintf("%s:%d", name, p.Line)
}

// funcLabel renders "pkg.Func" / "pkg.Type.Method".
func funcLabel(fn *types.Func) string {
	name := fn.Name()
	if recv := recvTypeName(fn); recv != "" {
		name = recv + "." + name
	}
	if fn.Pkg() != nil {
		name = fn.Pkg().Name() + "." + name
	}
	return name
}

func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// allocatesDirect reports the first allocation in fn's own body that sits at
// a guard-free position: not under if/switch/select, not in a loop (loops
// can run zero iterations — the amortized row-pool idiom `for len(pool) <= d
// { append(make...) }` must stay legal), not in a nested func literal or
// `go` statement. One level deep only (hotalloc's "hidden one call deep"
// rule); no recursion into further callees.
func (g *bodyIndex) allocatesDirect(fn *types.Func) *allocInfo {
	if fn == nil {
		return nil
	}
	if o := fn.Origin(); o != nil {
		fn = o
	}
	if ai, ok := g.allocMemo[fn]; ok {
		return ai
	}
	node := g.nodeFor(fn)
	if node == nil {
		g.allocMemo[fn] = nil
		return nil
	}
	var found *allocInfo
	ast.Inspect(node.decl.Body, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		switch x := n.(type) {
		case *ast.IfStmt, *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt,
			*ast.GoStmt, *ast.ForStmt, *ast.RangeStmt:
			return false
		case *ast.FuncLit:
			found = &allocInfo{desc: "allocates a closure", pos: x.Pos()}
			return false
		case *ast.CallExpr:
			if tv, ok := node.info.Types[x.Fun]; ok && tv.IsType() {
				if len(x.Args) == 1 && isStringByteConversion(node.info, x) {
					found = &allocInfo{desc: "string<->[]byte conversion", pos: x.Pos()}
					return false
				}
				return true
			}
			if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok {
				if b, isBuiltin := node.info.Uses[id].(*types.Builtin); isBuiltin &&
					(b.Name() == "make" || b.Name() == "new") {
					found = &allocInfo{desc: b.Name() + " allocation", pos: x.Pos()}
					return false
				}
			}
			if fn, ok := calleeObject(node.info, x).(*types.Func); ok &&
				fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
				found = &allocInfo{desc: "fmt." + fn.Name() + " call", pos: x.Pos()}
				return false
			}
		}
		return true
	})
	g.allocMemo[fn] = found
	return found
}
