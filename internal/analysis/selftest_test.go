package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestRepoClean dogfoods the suite: running every analyzer over the whole
// module must produce zero findings. Deliberate exceptions carry explained
// //lint:ignore directives in source, so any diagnostic here is either a
// real regression or a rotten suppression.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the entire module")
	}
	l, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range Run(pkgs, All()) {
		t.Errorf("repo not clean: %s", d)
	}
}

// TestScopePackagesExist keeps the analyzers' scopes in step with the tree:
// every entry of the scopes table must name a directory of the module that
// holds a non-test .go file, no "internal/..." path literal may appear in
// this package's non-test code outside that table, and every method name
// ctxpoll switches on as a serving entry point must be declared by some
// non-test method in the module. A scope naming a deleted package or method
// checks nothing and says otherwise.
func TestScopePackagesExist(t *testing.T) {
	root, err := findModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(scopes) == 0 {
		t.Fatal("the scopes table is empty")
	}
	for role, dirs := range scopes {
		for _, dir := range dirs {
			if !hasNonTestGo(filepath.Join(root, filepath.FromSlash(dir))) {
				t.Errorf("scopes[%q]: %q names no package with non-test Go files", role, dir)
			}
		}
	}

	methods, err := moduleMethodNames(root)
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	entries := 0
	for _, pkg := range pkgs {
		for path, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.ValueSpec:
					if len(n.Names) == 1 && n.Names[0].Name == "scopes" {
						return false
					}
				case *ast.BasicLit:
					if v, err := strconv.Unquote(n.Value); n.Kind == token.STRING && err == nil && strings.HasPrefix(v, "internal/") {
						t.Errorf("%s: path literal %q outside the scopes table", fset.Position(n.Pos()), v)
					}
				case *ast.SwitchStmt:
					if filepath.Base(path) != "ctxpoll.go" || !isNameCall(n.Tag) {
						return true
					}
					for _, stmt := range n.Body.List {
						for _, e := range stmt.(*ast.CaseClause).List {
							lit, ok := e.(*ast.BasicLit)
							if !ok || lit.Kind != token.STRING {
								continue
							}
							name, _ := strconv.Unquote(lit.Value)
							entries++
							if !methods[name] {
								t.Errorf("%s: entry point %q is declared by no non-test method in the module", fset.Position(lit.Pos()), name)
							}
						}
					}
				}
				return true
			})
		}
	}
	if entries == 0 {
		t.Fatal("found no entry-point names in ctxpoll.go")
	}
}

// isNameCall reports whether e is a call x.Name() — the tag of the switches
// that list entry-point method names.
func isNameCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == "Name"
}

// moduleMethodNames returns the names of every method declared in the
// module's non-test Go files, skipping testdata and nested modules.
func moduleMethodNames(root string) (map[string]bool, error) {
	names := map[string]bool{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			if strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil {
				names[fd.Name.Name] = true
			}
		}
		return nil
	})
	return names, err
}

func hasNonTestGo(dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			return true
		}
	}
	return false
}
