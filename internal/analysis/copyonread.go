package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// copyOnRead enforces the result cache's aliasing contract (PR 3): a cached
// match slice is owned by the cache, and the only way its contents may reach
// a caller is through a designated copy helper. Without this, one caller's
// in-place top-k sort or shard ID remap silently corrupts the entry every
// later hit returns.
//
// Ownership is declared in source, so the analyzer has no hard-coded
// knowledge of the cache package and any future owning structure gets the
// same protection:
//
//   - a slice-typed struct field whose comment contains `lint:cacheowned`
//     is cache-owned;
//   - a function whose doc comment contains `lint:copyhelper` is a
//     designated copy helper.
//
// Allowed uses of an owned field: whole-field assignment, passing to a copy
// helper, len/cap, nil comparison, read-only ranging and element reads.
// Everything else — returning it, appending to it through an alias, passing
// it to any other function, element assignment, sub-slicing, taking element
// addresses — is a finding.
var copyOnRead = &Analyzer{
	Name: "copyonread",
	Doc:  "cache-owned result slices (fields marked lint:cacheowned) may only leave through lint:copyhelper functions and must never be mutated in place",
	Run:  runCopyOnRead,
}

func runCopyOnRead(pass *Pass) {
	owned := collectOwnedFields(pass)
	if len(owned) == 0 {
		return
	}
	helpers := collectCopyHelpers(pass)
	for _, f := range pass.Files {
		checkOwnedUses(pass, f, owned, helpers)
	}
}

// collectOwnedFields finds slice-typed struct fields marked lint:cacheowned.
func collectOwnedFields(pass *Pass) map[types.Object]bool {
	owned := map[types.Object]bool{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				if !commentContains("lint:cacheowned", field.Doc, field.Comment) {
					continue
				}
				for _, name := range field.Names {
					obj := pass.Info.Defs[name]
					if obj == nil {
						continue
					}
					if _, isSlice := obj.Type().Underlying().(*types.Slice); isSlice {
						owned[obj] = true
					} else {
						pass.Reportf(name.Pos(),
							"lint:cacheowned marks non-slice field %s; the marker protects result slices", name.Name)
					}
				}
			}
			return true
		})
	}
	return owned
}

// collectCopyHelpers finds functions whose doc carries lint:copyhelper.
func collectCopyHelpers(pass *Pass) map[types.Object]bool {
	helpers := map[types.Object]bool{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !commentContains("lint:copyhelper", fd.Doc) {
				continue
			}
			if obj := pass.Info.Defs[fd.Name]; obj != nil {
				helpers[obj] = true
			}
		}
	}
	return helpers
}

// checkOwnedUses walks one file with an ancestor stack and classifies every
// selector that resolves to an owned field.
func checkOwnedUses(pass *Pass, f *ast.File, owned, helpers map[types.Object]bool) {
	var stack []ast.Node
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		selection, ok := pass.Info.Selections[sel]
		if !ok || selection.Kind() != types.FieldVal || !owned[selection.Obj()] {
			return true
		}
		if msg := classifyOwnedUse(pass, sel, stack, helpers); msg != "" {
			pass.Reportf(sel.Pos(), "cache-owned slice %s %s", sel.Sel.Name, msg)
		}
		return true
	}
	ast.Inspect(f, visit)
}

// classifyOwnedUse returns "" for allowed uses of the owned selector, or the
// finding message otherwise. stack ends with the selector itself.
func classifyOwnedUse(pass *Pass, sel *ast.SelectorExpr, stack []ast.Node, helpers map[types.Object]bool) string {
	parent := parentOf(stack, 1)
	switch p := parent.(type) {
	case *ast.AssignStmt:
		for _, lhs := range p.Lhs {
			if lhs == ast.Expr(sel) {
				return "" // whole-field (re)assignment
			}
		}
		return "aliased by assignment: hand out a copy via a lint:copyhelper function instead"
	case *ast.CallExpr:
		if ast.Expr(sel) == p.Fun {
			return "" // impossible for a slice; defensive
		}
		switch callee := calleeObject(pass.Info, p).(type) {
		case *types.Builtin:
			switch callee.Name() {
			case "len", "cap":
				return ""
			case "append":
				if len(p.Args) > 0 && p.Args[0] == ast.Expr(sel) {
					return "mutated by append: cached entries must stay immutable after insert"
				}
				return "aliased by append: copy before extending"
			case "copy":
				// copy(dst, sel) reads; copy(sel, src) writes.
				if len(p.Args) == 2 && p.Args[0] == ast.Expr(sel) {
					return "mutated as copy destination: cached entries must stay immutable"
				}
				return ""
			}
			return "passed to builtin " + callee.Name() + " outside the copy helpers"
		default:
			if helpers[calleeObject(pass.Info, p)] {
				return ""
			}
			return "passed outside the designated copy helpers (mark the callee lint:copyhelper if it copies)"
		}
	case *ast.BinaryExpr:
		if (p.Op == token.EQL || p.Op == token.NEQ) && (isNilIdent(p.X) || isNilIdent(p.Y)) {
			return ""
		}
		return "used in a binary expression outside nil comparison"
	case *ast.RangeStmt:
		if p.X == ast.Expr(sel) {
			return "" // read-only iteration
		}
	case *ast.IndexExpr:
		if p.X != ast.Expr(sel) {
			return ""
		}
		switch gp := parentOf(stack, 2).(type) {
		case *ast.AssignStmt:
			for _, lhs := range gp.Lhs {
				if lhs == ast.Expr(p) {
					return "mutated by element assignment: callers must receive private copies"
				}
			}
			return "" // element read on the RHS
		case *ast.UnaryExpr:
			if gp.Op == token.AND {
				return "leaks an element pointer: callers could mutate the cached entry"
			}
			return ""
		default:
			return "" // element read
		}
	case *ast.SliceExpr:
		return "aliased by sub-slicing: hand out a copy instead"
	case *ast.ReturnStmt:
		return "returned without copying: route it through a lint:copyhelper function"
	case *ast.UnaryExpr:
		if p.Op == token.AND {
			return "address-taken: callers could mutate the cached entry"
		}
		return ""
	case *ast.KeyValueExpr:
		if p.Value == ast.Expr(sel) {
			return "stored into a composite literal without copying"
		}
		return ""
	}
	return "used outside the allowed read-only forms (assign whole, copy out via lint:copyhelper, len/cap, nil check, range)"
}

// parentOf returns the n-th ancestor above the stack top (1 = immediate
// parent), or nil.
func parentOf(stack []ast.Node, n int) ast.Node {
	if len(stack) <= n {
		return nil
	}
	return stack[len(stack)-1-n]
}

func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}
