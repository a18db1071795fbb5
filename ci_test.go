package simsearch_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestCILists keeps the two hand-written lists of `make check` complete. The
// Makefile is the one place they live (scripts/ci.sh only calls `make
// check`): every `func Fuzz*` in the tree must have its line in fuzz-smoke,
// and every package with tests whose own code starts a goroutine must be in
// RACE_PKGS. The fixed benchmark is a module of its own with its own tests
// and is not walked.
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
	smoke := makefile[strings.Index(makefile, "\nfuzz-smoke:"):]
	smoke = smoke[:strings.Index(smoke, "\n\n")]

	if ci, err := os.ReadFile("scripts/ci.sh"); err != nil || !strings.Contains(string(ci), "make check") ||
		strings.Contains(string(ci), "-fuzz=") || strings.Contains(string(ci), "-race") {
		t.Errorf("scripts/ci.sh must call `make check` and repeat none of its lists (read error: %v)", err)
	}

	fuzzFunc := regexp.MustCompile(`(?m)^func (Fuzz\w+)\(`)
	hasTests, startsGoroutines := map[string]bool{}, map[string]bool{}
	fset := token.NewFileSet()
	walkGoFiles(t, func(path string) error {
		dir := filepath.Dir(path)
		if strings.HasSuffix(path, "_test.go") {
			hasTests[dir] = true
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range fuzzFunc.FindAllStringSubmatch(string(src), -1) {
				pkg := "./" + filepath.ToSlash(dir)
				if dir == "." {
					pkg = "."
				}
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
	walkGoFiles(t, func(path string) error {
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

// walkGoFiles calls fn on every .go file of the module. The fixed benchmark
// (a module of its own with its own tests), testdata fixtures and dot
// directories are not walked.
func walkGoFiles(t *testing.T, fn func(path string) error) {
	t.Helper()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "benchmark" || name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		return fn(path)
	})
	if err != nil {
		t.Fatal(err)
	}
}
