package analysis

import (
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// sharedLoader serves every fixture test: the standard-library packages the
// fixtures import are parsed and type-checked once. Fixture tests run
// sequentially in this package, so the unsynchronized cache is safe.
var sharedLoader *Loader

func fixtureLoader(t *testing.T) *Loader {
	t.Helper()
	if sharedLoader == nil {
		l, err := NewLoader(".")
		if err != nil {
			t.Fatal(err)
		}
		sharedLoader = l
	}
	return sharedLoader
}

// wantRe extracts expected-diagnostic patterns from fixture comments:
// `want "regexp"` on the flagged line, several per comment allowed.
var wantRe = regexp.MustCompile(`want "([^"]*)"`)

// runFixture loads testdata/src/<dir> under importPath (so path-scoped
// analyzers can be pointed at their real targets), runs the analyzers, and
// checks the diagnostics against the fixture's want comments: every
// diagnostic must be claimed by a want on its line, and every want must
// claim a diagnostic.
func runFixture(t *testing.T, dir, importPath string, analyzers []*Analyzer) {
	t.Helper()
	l := fixtureLoader(t)
	pkgs, err := l.loadFixture(filepath.Join("testdata", "src", dir), importPath)
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(pkgs, analyzers)

	type key struct {
		file string
		line int
	}
	wants := map[key][]*regexp.Regexp{}
	claimed := map[key][]bool{}
	total := 0
	for _, pkg := range pkgs {
		for _, f := range pkg.Syntax {
			for _, g := range f.Comments {
				for _, c := range g.List {
					for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
						re, err := regexp.Compile(m[1])
						if err != nil {
							t.Fatalf("%s: bad want pattern %q: %v", dir, m[1], err)
						}
						p := pkg.Fset.Position(c.Pos())
						k := key{p.Filename, p.Line}
						wants[k] = append(wants[k], re)
						claimed[k] = append(claimed[k], false)
						total++
					}
				}
			}
		}
	}
	if total == 0 {
		t.Fatalf("%s: fixture has no want comments", dir)
	}

	for _, d := range diags {
		k := key{d.Position.Filename, d.Position.Line}
		ok := false
		for i, re := range wants[k] {
			if !claimed[k][i] && re.MatchString(d.Message) {
				claimed[k][i] = true
				ok = true
				break
			}
		}
		if !ok {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for k, res := range wants {
		for i, re := range res {
			if !claimed[k][i] {
				t.Errorf("%s:%d: expected a diagnostic matching %q, got none",
					filepath.Base(k.file), k.line, re)
			}
		}
	}
}

func TestCtxPollFixture(t *testing.T) {
	runFixture(t, "ctxpoll", "simsearch/internal/scan", []*Analyzer{ctxPoll})
}

func TestHotAllocFixture(t *testing.T) {
	runFixture(t, "hotalloc", "simsearch/internal/edit", []*Analyzer{hotAlloc})
}

// TestHotAllocLSMFixture: under internal/lsm only loops that call a kernel —
// here a scan.Probe method — are checked.
func TestHotAllocLSMFixture(t *testing.T) {
	runFixture(t, "hotalloclsm", "simsearch/internal/lsm", []*Analyzer{hotAlloc})
}

func TestNoSleepTestFixture(t *testing.T) {
	runFixture(t, "nosleeptest", "simsearch/fixture/nosleeptest", []*Analyzer{noSleepTest})
}

func TestCopyOnReadFixture(t *testing.T) {
	runFixture(t, "copyonread", "simsearch/fixture/copyonread", []*Analyzer{copyOnRead})
}

// TestIgnoreDirectives checks directive hygiene by hand (the expectations
// are about the directives themselves, so want comments cannot express
// them): malformed directives are findings, a multi-analyzer directive
// suppresses, a directive on the wrong line or naming the wrong analyzer
// does not — and such an inert directive is itself reported as stale.
func TestIgnoreDirectives(t *testing.T) {
	l := fixtureLoader(t)
	pkgs, err := l.loadFixture(filepath.Join("testdata", "src", "ignores"), "simsearch/fixture/ignores")
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(pkgs, All())
	want := []struct {
		analyzer, substr string
	}{
		{"simlint", "malformed //lint:ignore"},         // missing reason
		{"simlint", "unknown analyzer nosuchanalyzer"}, // bad name
		{"simlint", "stale //lint:ignore hotalloc"},    // wrong-analyzer directive suppressed nothing
		{"nosleeptest", "time.Sleep in test"},          // wrong analyzer named
		{"simlint", "stale //lint:ignore nosleeptest"}, // two lines away, so inert
		{"nosleeptest", "time.Sleep in test"},          // directive two lines away
	}
	if len(diags) != len(want) {
		for _, d := range diags {
			t.Log(d)
		}
		t.Fatalf("got %d diagnostics, want %d", len(diags), len(want))
	}
	for i, d := range diags {
		if d.Analyzer != want[i].analyzer || !strings.Contains(d.Message, want[i].substr) {
			t.Errorf("diagnostic %d = %s; want analyzer %q, message containing %q",
				i, d, want[i].analyzer, want[i].substr)
		}
	}
}
