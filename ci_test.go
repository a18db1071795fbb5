package simsearch_test

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"

	"simsearch/internal/analysis"
)

// TestCILists keeps the two hand-written lists of `make check` complete. The
// Makefile is the one place they live (scripts/ci.sh only calls `make
// check`): every `func Fuzz*` in the tree must have its line in fuzz-smoke,
// every package with tests whose own code starts a goroutine must be in
// RACE_PKGS, and every benchmark bench-smoke names must exist — `go test
// -bench` exits 0 when nothing matches, so a stale line would pass unseen.
// The fixed benchmark is a module of its own with its own tests and is not
// walked.
func TestCILists(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	makefile := string(mk)
	racePkgs := map[string]bool{}
	if m := regexp.MustCompile(`(?m)^RACE_PKGS\s*=\s*(.*)$`).FindStringSubmatch(makefile); m != nil {
		for _, p := range strings.Fields(m[1]) {
			racePkgs[filepath.Clean(p)] = true
		}
	}
	if len(racePkgs) == 0 {
		t.Fatal("no RACE_PKGS line in the Makefile")
	}
	target := func(name string) string {
		body := makefile[strings.Index(makefile, "\n"+name+":"):]
		return body[:strings.Index(body, "\n\n")]
	}
	smoke := target("fuzz-smoke")

	written := map[string]bool{}
	for _, m := range regexp.MustCompile(`-json\s+(\S+)`).FindAllStringSubmatch(target("bench"), -1) {
		written[m[1]] = true
		if _, err := os.Stat(m[1]); err != nil {
			t.Errorf("make bench writes %s, which is not in the tree: commit it or drop its line", m[1])
		}
	}
	committed, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range committed {
		if !written[f] {
			t.Errorf("%s is in the tree but no -json argument of make bench writes it: delete it or give it a line", f)
		}
	}

	if ci, err := os.ReadFile("scripts/ci.sh"); err != nil || !strings.Contains(string(ci), "make check") ||
		strings.Contains(string(ci), "-fuzz=") || strings.Contains(string(ci), "-race") {
		t.Errorf("scripts/ci.sh must call `make check` and repeat none of its lists (read error: %v)", err)
	}

	fuzzFunc := regexp.MustCompile(`(?m)^func (Fuzz\w+)\(`)
	benchFunc := regexp.MustCompile(`(?m)^func (Benchmark\w+)\(b \*testing\.B\)`)
	hasTests, startsGoroutines := map[string]bool{}, map[string]bool{}
	benchmarks := map[string]bool{} // "./pkg BenchmarkName"
	fset := token.NewFileSet()
	walkGoFiles(t, ".", func(path string) error {
		dir := filepath.Dir(path)
		if strings.HasSuffix(path, "_test.go") {
			hasTests[dir] = true
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			pkg := "./" + filepath.ToSlash(dir)
			if dir == "." {
				pkg = "."
			}
			for _, m := range benchFunc.FindAllStringSubmatch(string(src), -1) {
				benchmarks[pkg+" "+m[1]] = true
			}
			for _, m := range fuzzFunc.FindAllStringSubmatch(string(src), -1) {
				if want := "-fuzz='^" + m[1] + "$$' -fuzztime=$(FUZZ_SMOKE_TIME) " + pkg + "\n"; !strings.Contains(smoke+"\n", want) {
					t.Errorf("%s: %s is missing from the Makefile's fuzz-smoke (want a line ending %q)", path, m[1], strings.TrimSpace(want))
				}
			}
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if _, ok := n.(*ast.GoStmt); ok {
				startsGoroutines[dir] = true
			}
			return !startsGoroutines[dir]
		})
		return nil
	})
	for dir := range startsGoroutines {
		if hasTests[dir] && !racePkgs[dir] {
			t.Errorf("./%s starts goroutines and has tests but is missing from the Makefile's RACE_PKGS", filepath.ToSlash(dir))
		}
	}
	for p := range racePkgs {
		if !hasTests[p] {
			t.Errorf("RACE_PKGS lists %s, which has no tests", p)
		}
	}

	// A bench-smoke line names its benchmarks as -bench='^Name$$' or
	// -bench='^Prefix(A|B)$$', and its package last.
	benchLine := regexp.MustCompile(`-bench='\^(\w+)(?:\(([\w|]+)\))?\$\$'.*\s(\S+)$`)
	for _, line := range strings.Split(target("bench-smoke"), "\n") {
		if !strings.Contains(line, "-bench='") {
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("bench-smoke line %q does not name its benchmarks as -bench='^Name$$' … ./pkg", strings.TrimSpace(line))
			continue
		}
		suffixes := []string{""}
		if m[2] != "" {
			suffixes = strings.Split(m[2], "|")
		}
		for _, suf := range suffixes {
			if name := m[1] + suf; !benchmarks[m[3]+" "+name] {
				t.Errorf("bench-smoke runs %s in %s, which has no func %s(b *testing.B): drop the line or restore the benchmark", name, m[3], name)
			}
		}
	}
}

// TestNoOrphanPackages keeps ROADMAP's deletion rule from eroding: every
// package under internal/ must be imported by a non-test file of another
// package in the module (the root, cmd/, examples/ or internal/). A package
// that only its own tests reach serves no paper table, serving path or
// benchmark workload, and is deleted rather than kept.
func TestNoOrphanPackages(t *testing.T) {
	const module = "simsearch/"
	internal, imported := map[string]bool{}, map[string]bool{}
	fset := token.NewFileSet()
	walkGoFiles(t, ".", func(path string) error {
		if strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if strings.HasPrefix(dir, "internal/") {
			internal[dir] = true
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if p, ok := strings.CutPrefix(strings.Trim(imp.Path.Value, `"`), module); ok && p != dir {
				imported[p] = true
			}
		}
		return nil
	})
	var orphans []string
	for dir := range internal {
		if !imported[dir] {
			orphans = append(orphans, dir)
		}
	}
	sort.Strings(orphans)
	for _, dir := range orphans {
		t.Errorf("%s is imported by no non-test file of another package: delete it or give it a caller", dir)
	}
}

// TestHTTPAPIImportsNoEngine keeps the serving layer's layering: a non-test
// file of internal/httpapi may import no concrete engine or layer package
// and name none of core's concrete engines. The server finds what it serves
// by method sets on the decorator chain (Unwrap, Describe, RegisterMetrics),
// so an engine change never edits the HTTP layer.
func TestHTTPAPIImportsNoEngine(t *testing.T) {
	banned := map[string]bool{}
	for _, p := range []string{"cache", "exec", "lsm", "scan", "trie", "pool"} {
		banned["simsearch/internal/"+p] = true
	}
	engines := map[string]bool{"Cascade": true, "Sequential": true, "Trie": true}
	fset := token.NewFileSet()
	walkGoFiles(t, "internal/httpapi", func(path string) error {
		if strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		core := ""
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			if banned[p] {
				t.Errorf("%s: imports %s; reach the layer through core's interfaces or a method set", fset.Position(imp.Pos()), p)
			}
			if p == "simsearch/internal/core" {
				core = "core"
				if imp.Name != nil {
					core = imp.Name.Name
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && core != "" && x.Name == core && engines[sel.Sel.Name] {
					t.Errorf("%s: names %s.%s; the server serves engines through core.Searcher", fset.Position(sel.Pos()), x.Name, sel.Sel.Name)
				}
			}
			return true
		})
		return nil
	})
}

// TestOneKernelSeam keeps one way into the Myers kernels per side. Outside
// internal/edit, the module's non-test Go calls a method of
// *edit.MyersPattern only where it is the seam: BoundedLanes from
// internal/scan, at one call site (the probe's queue, which every sweep
// feeds), and StepBand and BandDistance from internal/trie (the descent). A
// second route to the kernel, or a second call site, is a second place for a
// kernel change to miss. Every package is type-checked from source through
// internal/analysis's loader (typedTree). The fixed benchmark is a module of
// its own and is not walked.
func TestOneKernelSeam(t *testing.T) {
	seam := map[string]string{
		"BoundedLanes": "simsearch/internal/scan",
		"StepBand":     "simsearch/internal/trie",
		"BandDistance": "simsearch/internal/trie",
	}
	lanes := 0
	for _, p := range typedTree(t) {
		if p.path == "simsearch/internal/edit" || p.path == "simsearch/benchmark" {
			continue
		}
		for sel, s := range p.info.Selections {
			recv := strings.TrimPrefix(types.TypeString(s.Recv(), nil), "*")
			if s.Kind() == types.FieldVal || recv != "simsearch/internal/edit.MyersPattern" {
				continue
			}
			name := s.Obj().Name()
			if seam[name] != p.path {
				t.Errorf("%s: %s calls MyersPattern.%s; the kernels are reached through the scan probe's queue (BoundedLanes) and the trie's band (StepBand, BandDistance)", p.fset.Position(sel.Pos()), p.path, name)
			}
			if name == "BoundedLanes" {
				lanes++
			}
		}
	}
	if lanes != 1 {
		t.Errorf("BoundedLanes has %d call sites outside internal/edit, want 1", lanes)
	}
}

// TestNoOrphanMethods takes TestNoOrphanExports down to the exported methods
// of the types of the root package and of internal/, type-checked
// (typedTree). A method must be called, or taken as a value, by non-test code
// of the module or of the fixed benchmark, or be how a type of the tree
// satisfies an interface the tree uses: the type of a value, parameter,
// result or field a non-test file names, or fmt.Stringer, which fmt reaches
// with no file naming it. A method on orphanMethodsAllowed stands for the
// reason it gives. What only tests call is deleted; what only its own
// package calls may stay, as an exported identifier may not.
func TestNoOrphanMethods(t *testing.T) {
	pkgs := typedTree(t)
	used := map[string]bool{}               // methodKey of every method non-test code reaches
	ifaces := map[string]*types.Interface{} // the interfaces the tree uses, by type string
	var collect func(typ types.Type)
	collect = func(typ types.Type) {
		switch u := typ.(type) {
		case *types.Pointer:
			collect(u.Elem())
		case *types.Slice:
			collect(u.Elem())
		case *types.Array:
			collect(u.Elem())
		case *types.Chan:
			collect(u.Elem())
		case *types.Map:
			collect(u.Key())
			collect(u.Elem())
		case *types.Signature:
			for _, tuple := range []*types.Tuple{u.Params(), u.Results()} {
				for i := 0; i < tuple.Len(); i++ {
					collect(tuple.At(i).Type())
				}
			}
		default:
			if iface, ok := typ.Underlying().(*types.Interface); ok && iface.NumMethods() > 0 {
				ifaces[types.TypeString(typ, nil)] = iface
			}
		}
	}
	var named []*types.Named // every package-level type of the tree
	for _, p := range pkgs {
		for _, s := range p.info.Selections {
			if fn, ok := s.Obj().(*types.Func); ok {
				used[methodKey(fn)] = true
			}
		}
		for _, objs := range []map[*ast.Ident]types.Object{p.info.Defs, p.info.Uses} {
			for _, obj := range objs {
				if obj != nil {
					collect(obj.Type())
				}
			}
		}
		for _, tv := range p.info.Types {
			collect(tv.Type)
		}
		for _, imp := range p.pkg.Imports() {
			if imp.Path() == "fmt" {
				collect(imp.Scope().Lookup("Stringer").Type())
			}
		}
		for _, name := range p.pkg.Scope().Names() {
			if tn, ok := p.pkg.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok {
					named = append(named, n)
				}
			}
		}
	}
	// The tree's packages are checked one by one, each against its imports
	// as the loader checked them apart, so a type and an interface of two
	// checks are matched by method names and signature strings, not by
	// types.Implements.
	for _, n := range named {
		ms := types.NewMethodSet(types.NewPointer(n))
		for _, iface := range ifaces {
			var impl []*types.Func
			for i := 0; i < iface.NumMethods(); i++ {
				want := iface.Method(i)
				sel := ms.Lookup(want.Pkg(), want.Name())
				if sel == nil || signatureKey(sel.Obj().Type()) != signatureKey(want.Type()) {
					impl = nil
					break
				}
				impl = append(impl, sel.Obj().(*types.Func))
			}
			for _, fn := range impl {
				used[methodKey(fn)] = true
			}
		}
	}
	for _, n := range named {
		if path := n.Obj().Pkg().Path(); path != "simsearch" && !strings.HasPrefix(path, "simsearch/internal/") {
			continue
		}
		for i := 0; i < n.NumMethods(); i++ {
			m := n.Method(i)
			key := methodKey(m)
			if m.Exported() && !used[key] && orphanMethodsAllowed[key] == "" {
				t.Errorf("%s: %s has no caller outside tests and satisfies no interface the tree uses: delete it, or give it a caller", pkgs[0].fset.Position(m.Pos()), key)
			}
		}
	}
}

// orphanMethodsAllowed names the exported methods TestNoOrphanMethods lets
// stand with no caller but tests, each with its reason.
var orphanMethodsAllowed = map[string]string{
	"simsearch/internal/trie.Tree.Stats":   "the tree's shape, which the trie's tests and BenchmarkAblationTrieCompression (the §4.2 node counts) read",
	"simsearch/internal/scan.Words.Verify": "the check of everything NewWords derives, which the live store's tests run on every segment after a flush, a compaction and a reopen",
}

// methodKey names a method "importpath.Type.Method" after the type that
// declares it, however it was reached.
func methodKey(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	recv := sig.Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	n, ok := recv.(*types.Named)
	if !ok || n.Obj().Pkg() == nil {
		return ""
	}
	return n.Obj().Pkg().Path() + "." + n.Obj().Name() + "." + fn.Name()
}

// signatureKey spells a method signature's parameter and result types out
// with full package paths and no names, the same in every type check.
func signatureKey(typ types.Type) string {
	sig := typ.(*types.Signature)
	var b strings.Builder
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteString("(")
		for i := 0; i < tuple.Len(); i++ {
			b.WriteString(types.TypeString(tuple.At(i).Type(), nil) + ",")
		}
		b.WriteString(")")
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}

// typedPackage is one non-test package of the tree, type-checked.
type typedPackage struct {
	path string
	fset *token.FileSet // shared by every package of the tree
	pkg  *types.Package
	info *types.Info
}

// typedTree type-checks from source, once a test binary, the non-test files
// of every package of the module and of the fixed benchmark (a module of its
// own, simsearch/benchmark, that imports this one), through
// internal/analysis's loader. Only the Go declarations matter: with cgo off,
// net type-checks from its pure-Go files, on GOARCH=386 (make portable) too.
func typedTree(t *testing.T) []typedPackage {
	t.Helper()
	pkgs, err := typedTreeOnce()
	if err != nil {
		t.Fatal(err)
	}
	return pkgs
}

var typedTreeOnce = sync.OnceValues(func() (pkgs []typedPackage, err error) {
	defer func(cgo bool) { build.Default.CgoEnabled = cgo }(build.Default.CgoEnabled)
	build.Default.CgoEnabled = false
	files := map[string][]string{} // package directory -> its non-test files for this platform
	collect := func(path string) error {
		dir, name := filepath.Split(path)
		if dir = filepath.Clean(dir); strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(dir, name); !ok || err != nil {
			return err
		}
		files[dir] = append(files[dir], path)
		return nil
	}
	for _, root := range []string{".", "benchmark"} {
		if err := filepath.WalkDir(root, goFiles(root, collect)); err != nil {
			return nil, err
		}
	}
	loader, err := analysis.NewLoader(".")
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	for dir, paths := range files {
		var syntax []*ast.File
		for _, path := range paths {
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			syntax = append(syntax, f)
		}
		p := typedPackage{path: "simsearch", fset: fset, info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		}}
		if dir != "." {
			p.path += "/" + filepath.ToSlash(dir)
		}
		if p.pkg, err = (&types.Config{Importer: loader}).Check(p.path, fset, syntax, p.info); err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
})

// TestNoOrphanExports takes TestNoOrphanPackages down to identifiers. An
// exported package-level func, var, const or type of an internal/ package
// must be referenced from a non-test file of another package; one of the
// facade (the root package) from cmd/, examples/, the fixed benchmark or an
// Example function. The benchmark's non-test files count as callers for both
// rules. A type that appears in the signature or fields of a referenced
// identifier, or of an exported method of a referenced type, counts as
// referenced. What only its own package calls is unexported; what nothing
// but tests calls is deleted. Names are resolved through each file's
// imports with go/ast alone.
//
// The same rule holds for settings: an exported field of an exported
// *Options or Limits struct, or of httpapi.Server, must be written by those
// same callers, as a composite-literal key or on the left of an assignment.
// go/ast gives no types, so an assignment x.F = … writes field F of every
// such struct of the packages the file imports. A setting only tests set is
// unexported; one nothing sets is a constant.
func TestNoOrphanExports(t *testing.T) {
	const module = "simsearch"
	type decl struct {
		node    ast.Node          // what the closure over types walks
		imports map[string]string // the declaring file's imports
		isType  bool
	}
	decls := map[string]*decl{}        // "importpath.Name" of every candidate
	methods := map[string][]ast.Node{} // "importpath.Type" → exported method signatures
	referenced := map[string]bool{}
	fields := map[string]token.Position{} // "importpath.Type.Field" of every setting
	written := map[string]bool{}          // "importpath.Type.Field" and "importpath.*.Field"
	fset := token.NewFileSet()
	visit := func(path string) error {
		dir := filepath.ToSlash(filepath.Dir(path))
		isTest := strings.HasSuffix(path, "_test.go")
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		imports := map[string]string{}
		for _, imp := range f.Imports {
			p := strings.Trim(imp.Path.Value, `"`)
			if p != module && !strings.HasPrefix(p, module+"/internal/") {
				continue
			}
			name := p[strings.LastIndex(p, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = p
		}
		// A facade name counts only from outside the root and internal/,
		// or from an Example.
		facadeCaller := dir != "." && !strings.HasPrefix(dir, "internal/")
		counts := func(p string) bool { return p != "" && (p != module || facadeCaller) }
		caller := func(from ast.Node) {
			ast.Inspect(from, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok && counts(imports[x.Name]) {
						referenced[imports[x.Name]+"."+n.Sel.Name] = true
					}
				case *ast.CompositeLit:
					if sel, ok := n.Type.(*ast.SelectorExpr); ok {
						if x, ok := sel.X.(*ast.Ident); ok && counts(imports[x.Name]) {
							for _, el := range n.Elts {
								if kv, ok := el.(*ast.KeyValueExpr); ok {
									if key, ok := kv.Key.(*ast.Ident); ok {
										written[imports[x.Name]+"."+sel.Sel.Name+"."+key.Name] = true
									}
								}
							}
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok {
							for _, p := range imports {
								if counts(p) {
									written[p+".*."+sel.Sel.Name] = true
								}
							}
						}
					}
				}
				return true
			})
		}
		if isTest {
			for name, p := range imports {
				if p != module {
					delete(imports, name)
				}
			}
			facadeCaller = true
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Example") {
					caller(fd)
				}
			}
			return nil
		}
		caller(f)
		if dir != "." && !strings.HasPrefix(dir, "internal/") {
			return nil
		}
		pkg := module
		if dir != "." {
			pkg += "/" + dir
		}
		add := func(name *ast.Ident, node ast.Node, isType bool) {
			if name.IsExported() {
				decls[pkg+"."+name.Name] = &decl{node: node, imports: imports, isType: isType}
			}
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add(d.Name, d.Type, false)
				} else if d.Name.IsExported() {
					recv := d.Recv.List[0].Type
					if star, ok := recv.(*ast.StarExpr); ok {
						recv = star.X
					}
					if idx, ok := recv.(*ast.IndexExpr); ok {
						recv = idx.X
					}
					if id, ok := recv.(*ast.Ident); ok {
						methods[pkg+"."+id.Name] = append(methods[pkg+"."+id.Name], d.Type)
					}
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name, s, true)
						st, ok := s.Type.(*ast.StructType)
						if ok && s.Name.IsExported() && (strings.HasSuffix(s.Name.Name, "Options") ||
							s.Name.Name == "Limits" || pkg+"."+s.Name.Name == module+"/internal/httpapi.Server") {
							for _, f := range st.Fields.List {
								for _, name := range f.Names {
									if name.IsExported() {
										fields[pkg+"."+s.Name.Name+"."+name.Name] = fset.Position(name.Pos())
									}
								}
							}
						}
					case *ast.ValueSpec:
						for _, name := range s.Names {
							add(name, s, false)
						}
					}
				}
			}
		}
		return nil
	}
	walkGoFiles(t, ".", visit)
	walkGoFiles(t, "benchmark", func(path string) error {
		if strings.HasSuffix(path, "_test.go") {
			return nil
		}
		return visit(path)
	})

	// Close over types: whatever a referenced identifier's signature,
	// fields or exported methods name is referenced too.
	var work []string
	for key := range referenced {
		work = append(work, key)
	}
	for len(work) > 0 {
		key := work[len(work)-1]
		work = work[:len(work)-1]
		d := decls[key]
		if d == nil {
			continue
		}
		pkg := key[:strings.LastIndex(key, ".")]
		for _, node := range append([]ast.Node{d.node}, methods[key]...) {
			typeRefs(node, pkg, d.imports, func(ref string) {
				if rd := decls[ref]; rd != nil && rd.isType && !referenced[ref] {
					referenced[ref] = true
					work = append(work, ref)
				}
			})
		}
	}

	var orphans []string
	for key := range decls {
		if !referenced[key] {
			orphans = append(orphans, key)
		}
	}
	sort.Strings(orphans)
	for _, key := range orphans {
		t.Errorf("%s has no caller outside its own package and tests: delete it, unexport it, or give it a caller", key)
	}

	var unset []string
	for key := range fields {
		typ := key[:strings.LastIndex(key, ".")]
		pkg, field := typ[:strings.LastIndex(typ, ".")], key[strings.LastIndex(key, ".")+1:]
		if !written[key] && !written[pkg+".*."+field] {
			unset = append(unset, key)
		}
	}
	sort.Strings(unset)
	for _, key := range unset {
		t.Errorf("%s: setting %s is set by nothing outside its own package and tests: delete it, unexport it, or make it a constant", fields[key], key)
	}
}

// typeRefs calls fn with "importpath.Name" for every identifier node names
// as a type or value: bare identifiers resolve to pkg, qualified ones through
// imports. Struct field names and composite-literal keys are skipped, and so
// are the unexported fields and methods of struct and interface types: a
// caller outside the package cannot reach what only they name.
func typeRefs(node ast.Node, pkg string, imports map[string]string, fn func(string)) {
	ast.Inspect(node, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.StructType:
			exportedFields(n.Fields, pkg, imports, fn)
			return false
		case *ast.InterfaceType:
			exportedFields(n.Methods, pkg, imports, fn)
			return false
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
				fn(imports[x.Name] + "." + n.Sel.Name)
				return false
			}
			typeRefs(n.X, pkg, imports, fn)
			return false
		case *ast.Field:
			typeRefs(n.Type, pkg, imports, fn)
			return false
		case *ast.KeyValueExpr:
			typeRefs(n.Value, pkg, imports, fn)
			return false
		case *ast.Ident:
			fn(pkg + "." + n.Name)
		}
		return true
	})
}

// exportedFields runs typeRefs over the types of the exported entries of a
// struct's fields or an interface's methods. An embedded entry is exported
// when its type name is.
func exportedFields(list *ast.FieldList, pkg string, imports map[string]string, fn func(string)) {
	for _, f := range list.List {
		exported := false
		for _, name := range f.Names {
			exported = exported || name.IsExported()
		}
		if len(f.Names) == 0 {
			typ := f.Type
			if star, ok := typ.(*ast.StarExpr); ok {
				typ = star.X
			}
			switch t := typ.(type) {
			case *ast.Ident:
				exported = t.IsExported()
			case *ast.SelectorExpr:
				exported = t.Sel.IsExported()
			}
		}
		if exported {
			typeRefs(f.Type, pkg, imports, fn)
		}
	}
}

// walkGoFiles calls fn on every .go file under root. The fixed benchmark (a
// module of its own with its own tests), testdata fixtures and dot
// directories below root are not walked.
func walkGoFiles(t *testing.T, root string, fn func(path string) error) {
	t.Helper()
	if err := filepath.WalkDir(root, goFiles(root, fn)); err != nil {
		t.Fatal(err)
	}
}

// goFiles is walkGoFiles's walk over root, for a caller with no test at hand.
func goFiles(root string, fn func(path string) error) fs.WalkDirFunc {
	return func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (name == "benchmark" || name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		return fn(path)
	}
}
