package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// fixture is a package with known findings (six unsuppressed time-based
// synchronization shapes across its test files); analyzer fixtures double
// as exit-code fixtures for the command.
const fixture = "../../internal/analysis/testdata/src/nosleeptest"

// fixtureFindings is the number of surviving findings in fixture.
const fixtureFindings = 6

func TestRunCleanPackage(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"../../internal/core"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, want 0\nstderr: %s\nstdout: %s", code, errb.String(), out.String())
	}
	if out.Len() != 0 {
		t.Errorf("clean run produced output:\n%s", out.String())
	}
}

func TestRunFindingsExitNonzero(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{fixture}, &out, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "time.Sleep in test") {
		t.Errorf("findings output missing expected message:\n%s", out.String())
	}
}

func TestRunJSONFindings(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-json", fixture}, &out, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr: %s", code, errb.String())
	}
	var diags []jsonDiag
	if err := json.Unmarshal(out.Bytes(), &diags); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	if len(diags) != fixtureFindings {
		t.Fatalf("findings = %d, want %d\n%s", len(diags), fixtureFindings, out.String())
	}
	for _, d := range diags {
		if d.Analyzer != "nosleeptest" || d.Line == 0 || !strings.HasSuffix(d.File, "_test.go") {
			t.Errorf("unexpected finding: %+v", d)
		}
	}
}

func TestRunJSONClean(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-json", "../../internal/core"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, want 0\nstderr: %s", code, errb.String())
	}
	if strings.TrimSpace(out.String()) != "[]" {
		t.Errorf("clean -json output = %q, want []", out.String())
	}
}

func TestRunBadPattern(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"./no/such/dir"}, &out, &errb); code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
}

func TestRunList(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	var got []string
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		got = append(got, strings.Fields(line)[0])
	}
	want := []string{"copyonread", "ctxpoll", "hotalloc", "nosleeptest"}
	if !slices.Equal(got, want) {
		t.Errorf("-list names %v, want %v:\n%s", got, want, out.String())
	}
}

func TestRunReportArtifact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "lint.json")
	var out, errb bytes.Buffer
	if code := run([]string{"-report", path, fixture}, &out, &errb); code != 1 {
		t.Fatalf("exit = %d, want 1\nstderr: %s", code, errb.String())
	}
	// Stdout keeps the human format.
	if !strings.Contains(out.String(), "time.Sleep in test") {
		t.Errorf("stdout missing human findings:\n%s", out.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var diags []jsonDiag
	if err := json.Unmarshal(data, &diags); err != nil {
		t.Fatalf("report is not valid JSON: %v\n%s", err, data)
	}
	if len(diags) != fixtureFindings {
		t.Errorf("report findings = %d, want %d", len(diags), fixtureFindings)
	}
}
