package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	file      string
	line      int
	pos       token.Position
	analyzers []string
	reason    string
	// used flips when the directive suppresses at least one diagnostic; a
	// directive that stays unused across a run of every analyzer it names is
	// stale and reported as such.
	used bool
}

// ignoreIndex indexes a package's suppression directives.
type ignoreIndex struct {
	directives []*ignoreDirective
}

const ignorePrefix = "//lint:ignore"

// collectIgnores parses every //lint:ignore directive in the package.
// Malformed directives — a missing reason, or a name that matches no known
// analyzer — are themselves reported into diags, so suppressions cannot rot
// silently.
func collectIgnores(pkg *Package, analyzers []*Analyzer, diags *[]Diagnostic) *ignoreIndex {
	idx := &ignoreIndex{}
	report := func(pos ast.Node, msg string) {
		*diags = append(*diags, Diagnostic{
			Analyzer: "simlint",
			Position: pkg.Fset.Position(pos.Pos()),
			Message:  msg,
		})
	}
	for _, f := range pkg.Syntax {
		for _, g := range f.Comments {
			for _, c := range g.List {
				if !strings.HasPrefix(c.Text, ignorePrefix) {
					continue
				}
				rest := strings.TrimPrefix(c.Text, ignorePrefix)
				if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
					continue // e.g. //lint:ignoreXXX — not our directive
				}
				fields := strings.Fields(rest)
				if len(fields) < 2 {
					report(c, "malformed //lint:ignore: want \"//lint:ignore <analyzer>[,<analyzer>] <reason>\"")
					continue
				}
				names := strings.Split(fields[0], ",")
				ok := true
				for _, n := range names {
					if byName(n) == nil {
						report(c, "//lint:ignore names unknown analyzer "+n)
						ok = false
					}
				}
				if !ok {
					continue
				}
				p := pkg.Fset.Position(c.Pos())
				idx.directives = append(idx.directives, &ignoreDirective{
					file: p.Filename, line: p.Line, pos: p, analyzers: names,
					reason: strings.Join(fields[1:], " "),
				})
			}
		}
	}
	return idx
}

// suppressed reports whether d is covered by a directive: same file, same
// analyzer, on the diagnostic's line (trailing comment) or the line above.
// A match marks the directive used.
func (idx *ignoreIndex) suppressed(d Diagnostic) bool {
	for _, dir := range idx.directives {
		if dir.file != d.Position.Filename {
			continue
		}
		if dir.line != d.Position.Line && dir.line != d.Position.Line-1 {
			continue
		}
		for _, n := range dir.analyzers {
			if n == d.Analyzer {
				dir.used = true
				return true
			}
		}
	}
	return false
}

// reportStale reports every directive that suppressed nothing even though all
// the analyzers it names were part of this run. Directives naming an analyzer
// outside the run are skipped: a fixture run of a single analyzer must not
// condemn suppressions belonging to the others.
func (idx *ignoreIndex) reportStale(ran []*Analyzer, diags *[]Diagnostic) {
	inRun := map[string]bool{}
	for _, a := range ran {
		inRun[a.Name] = true
	}
	for _, dir := range idx.directives {
		if dir.used {
			continue
		}
		all := true
		for _, n := range dir.analyzers {
			if !inRun[n] {
				all = false
				break
			}
		}
		if !all {
			continue
		}
		*diags = append(*diags, Diagnostic{
			Analyzer: "simlint",
			Position: dir.pos,
			Message: fmt.Sprintf("stale //lint:ignore %s suppressed no diagnostic (reason was: %q) — delete it",
				strings.Join(dir.analyzers, ","), dir.reason),
		})
	}
}
