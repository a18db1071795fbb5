// Command simlint runs the repo's invariant analyzers (internal/analysis)
// over the module and reports findings as file:line:col diagnostics.
//
// Usage:
//
//	simlint [-json] [-list] [-report file] [packages...]
//
// Packages default to ./... (the whole module). Exit status: 0 when clean,
// 1 when any finding survives suppression, 2 on usage or load errors.
//
// Machine consumption: -json emits a JSON array of findings
// ({"analyzer","file","line","col","message"}) on stdout — an empty
// array when clean — which is what CI tooling should parse instead of the
// human format. -report <file> writes the same JSON array to a file while
// stdout keeps the human format (the CI lint artifact).
//
// Suppression: a finding is silenced by
//
//	//lint:ignore <analyzer>[,<analyzer>] <reason>
//
// on the flagged line or the line above. The reason is mandatory; malformed,
// unknown-analyzer, and stale (suppressing-nothing) directives are findings
// themselves.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"simsearch/internal/analysis"
)

// jsonDiag is the machine-readable finding shape.
type jsonDiag struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Message  string `json:"message"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main's testable body: it parses args, loads packages, runs the
// suite, prints findings to stdout, and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("simlint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array on stdout")
	list := fs.Bool("list", false, "list the analyzers and exit")
	report := fs.String("report", "", "additionally write the JSON findings array to `file`")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: simlint [-json] [-list] [-report file] [packages...]\n\nAnalyzers:\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(stderr, "  %-14s %s\n", a.Name, a.Doc)
		}
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range analysis.All() {
			fmt.Fprintf(stdout, "%-14s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	loader, err := analysis.NewLoader(".")
	if err != nil {
		fmt.Fprintln(stderr, "simlint:", err)
		return 2
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "simlint:", err)
		return 2
	}

	diags := analysis.Run(pkgs, analysis.All())

	if *report != "" {
		if err := writeJSON(*report, diags); err != nil {
			fmt.Fprintln(stderr, "simlint:", err)
			return 2
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(toJSON(diags)); err != nil {
			fmt.Fprintln(stderr, "simlint:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

func toJSON(diags []analysis.Diagnostic) []jsonDiag {
	out := make([]jsonDiag, 0, len(diags))
	for _, d := range diags {
		out = append(out, jsonDiag{
			Analyzer: d.Analyzer,
			File:     d.Position.Filename,
			Line:     d.Position.Line,
			Col:      d.Position.Column,
			Message:  d.Message,
		})
	}
	return out
}

func writeJSON(path string, diags []analysis.Diagnostic) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(toJSON(diags)); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
