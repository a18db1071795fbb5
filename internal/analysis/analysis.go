// Package analysis is the repo's dependency-free static-analyzer suite
// (driven by cmd/simlint). The paper's §3 argument — and every serving-path
// PR since — rests on low-level invariants that nothing in the type system
// enforces: kernel loops must poll cancellation at a bounded stride, cached
// result slices must never leave the cache without being copied, tests must
// not synchronize with time.Sleep, hot kernel loops must not allocate or
// box, and 64-bit atomic fields must stay 64-bit aligned. Each analyzer in
// this package machine-checks one of those invariants over the whole module,
// so a future perf PR cannot silently erode them.
//
// The suite is built only on the standard library (go/ast, go/parser,
// go/token, go/types), matching the repo's no-external-modules rule.
// Deliberate exceptions are suppressed in source with
//
//	//lint:ignore <analyzer> <reason>
//
// on the flagged line or the line above; the reason is mandatory.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one invariant checker. Run inspects a fully type-checked
// package and reports findings through pass.Reportf.
type Analyzer struct {
	// Name is the identifier used in reports and //lint:ignore directives.
	Name string
	// Doc is a one-line description of the invariant the analyzer enforces.
	Doc string
	// Run executes the analyzer over one package.
	Run func(pass *Pass)
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		AtomicField,
		BlockUnderLock,
		CopyOnRead,
		CtxPoll,
		GoLeak,
		HotAlloc,
		LockOrder,
		NoSleepTest,
		UnlockPath,
	}
}

// ByName resolves an analyzer by its name (nil when unknown).
func ByName(name string) *Analyzer {
	for _, a := range All() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Path is the package's import path (test variants keep the base path).
	Path string
	// Files holds the package syntax, including any test files.
	Files []*ast.File
	Pkg   *types.Package
	Info  *types.Info

	pkg   *Package
	diags *[]Diagnostic
}

// Reportf records one finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Position: p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// ReportWitness records a finding together with the call-graph path / lockset
// evidence that produced it (rendered by `simlint -why <analyzer>`).
func (p *Pass) ReportWitness(pos token.Pos, witness []string, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Position: p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
		Witness:  witness,
	})
}

// Graph returns the unit's call graph (built lazily, shared across the
// analyzers running on this package).
func (p *Pass) Graph() *callGraph {
	return p.pkg.callGraph()
}

// InTestFile reports whether pos lies in a _test.go file.
func (p *Pass) InTestFile(pos token.Pos) bool {
	return strings.HasSuffix(p.Fset.Position(pos).Filename, "_test.go")
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Position token.Position `json:"-"`
	Message  string         `json:"message"`
	// Witness, when present, is the evidence chain behind the finding: the
	// call-graph path to the blocking/acquiring operation, or the lock-order
	// cycle's edges. Printed by `simlint -why`.
	Witness []string `json:"why,omitempty"`
}

// String renders the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Position.Filename,
		d.Position.Line, d.Position.Column, d.Message, d.Analyzer)
}

// Run executes every analyzer over every package and returns the surviving
// findings (suppressed ones removed), sorted by position then analyzer.
// Malformed //lint:ignore directives are reported as findings themselves, so
// a suppression can never silently rot.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		ig := collectIgnores(pkg, analyzers, &diags)
		var pkgDiags []Diagnostic
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Path:     pkg.Path,
				Files:    pkg.Syntax,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				pkg:      pkg,
				diags:    &pkgDiags,
			}
			a.Run(pass)
		}
		for _, d := range pkgDiags {
			if !ig.suppressed(d) {
				diags = append(diags, d)
			}
		}
		// A directive that suppressed nothing has outlived the code it
		// excused: report it (with its recorded reason) so it gets deleted.
		ig.reportStale(analyzers, &diags)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

// pathHasSuffix reports whether the package import path is pkg or ends with
// "/pkg" for one of the given suffixes (so fixtures and the real module
// layout both match).
func pathHasSuffix(path string, suffixes ...string) bool {
	for _, s := range suffixes {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}

// --- shared AST/type helpers used by several analyzers ---------------------

// calleeObject resolves the object a call expression invokes: a *types.Func
// for static function and method calls, a *types.Var for calls through a
// func-typed variable or parameter, nil for builtins and type conversions.
func calleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fun]
	case *ast.SelectorExpr:
		return info.Uses[fun.Sel]
	}
	return nil
}

// calleeIsPkgFunc reports whether the call statically invokes a function or
// method declared in a package whose import path matches one of the suffixes.
func calleeIsPkgFunc(info *types.Info, call *ast.CallExpr, suffixes ...string) bool {
	fn, ok := calleeObject(info, call).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	return pathHasSuffix(fn.Pkg().Path(), suffixes...)
}

// isKernelCall reports whether call enters a distance kernel: a function of
// internal/edit, or a method of internal/scan's Probe — the compiled query
// an engine outside internal/scan holds candidates against (the live store's
// delta scan) without touching internal/edit itself.
func isKernelCall(info *types.Info, call *ast.CallExpr) bool {
	fn, ok := calleeObject(info, call).(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	return pathHasSuffix(fn.Pkg().Path(), "internal/edit") ||
		pathHasSuffix(fn.Pkg().Path(), "internal/scan") && recvTypeName(fn) == "Probe"
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// isCancelChanType reports whether t is a (receive-only) chan struct{}, the
// shape of ctx.Done() results.
func isCancelChanType(t types.Type) bool {
	ch, ok := t.Underlying().(*types.Chan)
	if !ok || ch.Dir() == types.SendOnly {
		return false
	}
	st, ok := ch.Elem().Underlying().(*types.Struct)
	return ok && st.NumFields() == 0
}

// commentContains reports whether any of the comment groups carries the
// given directive marker.
func commentContains(marker string, groups ...*ast.CommentGroup) bool {
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			if strings.Contains(c.Text, marker) {
				return true
			}
		}
	}
	return false
}
