package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one type-checked analysis unit: a package's non-test files plus
// its in-package test files, or the external _test package of a directory.
type Package struct {
	// Path is the import path (external test units keep the base path; the
	// two units are distinguished only by their file sets).
	Path string
	Fset *token.FileSet
	// Syntax holds the parsed files of this unit.
	Syntax []*ast.File
	Types  *types.Package
	Info   *types.Info

	// loader links back to the Loader that produced the unit, giving
	// hotalloc's one-call-deep rule the syntax and type info of the
	// module-internal packages this unit imports (Loader.pureUnits).
	loader *Loader
	// idx caches the unit's function-body index (built lazily on first use;
	// see bodies.go).
	idx *bodyIndex
}

// Loader parses and type-checks module packages with the standard library
// alone: module-internal imports resolve through the loader's own cache and
// everything else (the standard library) through go/importer's source
// importer. No go/packages, no export data, no subprocesses.
type Loader struct {
	ModuleRoot string
	ModulePath string

	fset *token.FileSet
	std  types.ImporterFrom
	// pure caches import-resolution packages: non-test files only, exactly
	// what a dependant is allowed to see (this is what breaks the apparent
	// cycle between a package's test files and packages importing it).
	pure map[string]*pureEntry
	// pureUnits keeps the syntax and type info of each pure package so
	// hotalloc (bodies.go) can read the function bodies of module-internal
	// dependencies. Keyed by import path; populated by
	// importPure alongside l.pure.
	pureUnits map[string]*Package
}

type pureEntry struct {
	pkg *types.Package
	err error
}

// NewLoader builds a loader for the module containing dir (the nearest
// ancestor with a go.mod).
func NewLoader(dir string) (*Loader, error) {
	root, err := findModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	modPath, err := readModulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		ModuleRoot: root,
		ModulePath: modPath,
		fset:       fset,
		std:        importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pure:       map[string]*pureEntry{},
		pureUnits:  map[string]*Package{},
	}, nil
}

func findModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("analysis: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

func readModulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module directive in %s", gomod)
}

// Load resolves patterns into analysis units. Supported patterns: "./..."
// (every package under the module root) and directory paths relative to the
// current directory ("./internal/scan", "internal/scan").
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	var dirs []string
	seen := map[string]bool{}
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		if pat == "./..." || pat == "..." {
			all, err := l.moduleDirs()
			if err != nil {
				return nil, err
			}
			for _, d := range all {
				add(d)
			}
			continue
		}
		abs, err := filepath.Abs(strings.TrimSuffix(pat, "/"))
		if err != nil {
			return nil, err
		}
		add(abs)
	}
	var pkgs []*Package
	for _, dir := range dirs {
		units, err := l.loadDir(dir, l.importPathFor(dir))
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, units...)
	}
	return pkgs, nil
}

// moduleDirs lists every directory under the module root holding .go files,
// skipping testdata, vendor, and hidden directories.
func (l *Loader) moduleDirs() ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(l.ModuleRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != l.ModuleRoot &&
				(name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") {
			dir := filepath.Dir(path)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	// WalkDir visits files in order, but dedupe defensively.
	out := dirs[:0]
	for i, d := range dirs {
		if i == 0 || dirs[i-1] != d {
			out = append(out, d)
		}
	}
	return out, nil
}

// importPathFor maps a module directory to its import path.
func (l *Loader) importPathFor(dir string) string {
	rel, err := filepath.Rel(l.ModuleRoot, dir)
	if err != nil || rel == "." {
		return l.ModulePath
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel)
}

// dirFor maps a module-internal import path back to its directory.
func (l *Loader) dirFor(path string) string {
	if path == l.ModulePath {
		return l.ModuleRoot
	}
	rel := strings.TrimPrefix(path, l.ModulePath+"/")
	return filepath.Join(l.ModuleRoot, filepath.FromSlash(rel))
}

// parseDir parses every .go file of dir that the go command would build for
// this GOOS and GOARCH (file name suffixes and //go:build lines, as
// build.Default reads them) into three groups: non-test files, in-package
// test files, and external (_test package) test files.
func (l *Loader) parseDir(dir string) (src, tests, xtests []*ast.File, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasPrefix(name, ".") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil {
			return nil, nil, nil, err
		} else if !ok {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, nil, nil, err
		}
		switch {
		case !strings.HasSuffix(name, "_test.go"):
			src = append(src, f)
		case strings.HasSuffix(f.Name.Name, "_test"):
			xtests = append(xtests, f)
		default:
			tests = append(tests, f)
		}
	}
	return src, tests, xtests, nil
}

// newInfo allocates a fully populated types.Info.
func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Implicits:  map[ast.Node]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Scopes:     map[ast.Node]*types.Scope{},
	}
}

func (l *Loader) check(path string, files []*ast.File, info *types.Info) (*types.Package, error) {
	conf := types.Config{Importer: l}
	return conf.Check(path, l.fset, files, info)
}

// loadDir type-checks the analysis units of one directory: the package with
// its in-package tests, plus (when present) the external test package.
func (l *Loader) loadDir(dir, path string) ([]*Package, error) {
	src, tests, xtests, err := l.parseDir(dir)
	if err != nil {
		return nil, err
	}
	var units []*Package
	if len(src)+len(tests) > 0 {
		info := newInfo()
		pkg, err := l.check(path, append(append([]*ast.File{}, src...), tests...), info)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		units = append(units, &Package{
			Path: path, Fset: l.fset,
			Syntax: append(append([]*ast.File{}, src...), tests...),
			Types:  pkg, Info: info, loader: l,
		})
	}
	if len(xtests) > 0 {
		info := newInfo()
		pkg, err := l.check(path+"_test", xtests, info)
		if err != nil {
			return nil, fmt.Errorf("%s_test: %w", path, err)
		}
		units = append(units, &Package{
			Path: path, Fset: l.fset, Syntax: xtests, Types: pkg, Info: info, loader: l,
		})
	}
	return units, nil
}

// loadFixture type-checks a standalone fixture directory under the given
// import path (so path-scoped analyzers can be exercised from testdata).
func (l *Loader) loadFixture(dir, path string) ([]*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	return l.loadDir(abs, path)
}

// Import implements types.Importer (unused resolution path; ImportFrom does
// the work).
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.ModuleRoot, 0)
}

// ImportFrom implements types.ImporterFrom: module-internal paths resolve
// through the loader's pure-package cache, everything else through the
// standard library's source importer.
func (l *Loader) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		return l.importPure(path)
	}
	return l.std.ImportFrom(path, srcDir, mode)
}

// importPure type-checks the non-test half of a module package, caching the
// result. Cycles among non-test files are impossible in a buildable module,
// so the in-progress marker only guards against malformed input.
func (l *Loader) importPure(path string) (*types.Package, error) {
	if e, ok := l.pure[path]; ok {
		if e == nil {
			return nil, fmt.Errorf("analysis: import cycle through %s", path)
		}
		return e.pkg, e.err
	}
	l.pure[path] = nil // in progress
	src, _, _, err := l.parseDir(l.dirFor(path))
	if err == nil && len(src) == 0 {
		err = fmt.Errorf("analysis: no Go source in %s", path)
	}
	var pkg *types.Package
	info := newInfo()
	if err == nil {
		pkg, err = l.check(path, src, info)
	}
	l.pure[path] = &pureEntry{pkg: pkg, err: err}
	if err == nil {
		// Keep the checked bodies: hotalloc reads functions of
		// module-internal dependencies through this cache. Object identity
		// lines up with dependants because their imports resolve to this
		// same *types.Package.
		l.pureUnits[path] = &Package{
			Path: path, Fset: l.fset, Syntax: src, Types: pkg, Info: info, loader: l,
		}
	}
	return pkg, err
}
