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
// every literal "internal/..." suffix passed to pathHasSuffix in this
// package's non-test code must name a directory of the module that holds a
// non-test .go file. A scope naming a deleted package checks nothing and
// says otherwise.
func TestScopePackagesExist(t *testing.T) {
	root, err := findModuleRoot(".")
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
	scopes := 0
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "pathHasSuffix" {
					return true
				}
				for _, arg := range call.Args {
					lit, ok := arg.(*ast.BasicLit)
					if !ok || lit.Kind != token.STRING {
						continue
					}
					dir, err := strconv.Unquote(lit.Value)
					if err != nil || !strings.HasPrefix(dir, "internal/") {
						continue
					}
					scopes++
					if !hasNonTestGo(filepath.Join(root, filepath.FromSlash(dir))) {
						t.Errorf("%s: scope %q names no package with non-test Go files", fset.Position(lit.Pos()), dir)
					}
				}
				return true
			})
		}
	}
	if scopes == 0 {
		t.Fatal("found no pathHasSuffix scope literals")
	}
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
