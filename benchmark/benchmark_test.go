package main

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io"
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// contractLine is the one-line JSON object the driver reads per run.
type contractLine struct {
	Correct   *bool `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// TestSmokeReportsExactlyTheDeclaredMetrics runs the whole suite at smoke
// scale in-process and holds its output to BENCHMARK.json: every workload
// once per mode, every declared metric of that mode once, nothing else.
func TestSmokeReportsExactlyTheDeclaredMetrics(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := cli([]string{"-smoke", "-out", t.TempDir()}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s", code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if last := lines[len(lines)-1]; !strings.HasSuffix(last, `"claim": null}`) {
		t.Errorf("summary line does not end with a null claim: %s", last)
	}
	nameOK := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var runs []contractLine
	for _, l := range lines {
		if strings.HasPrefix(l, `{"correct"`) {
			var c contractLine
			if err := json.Unmarshal([]byte(l), &c); err != nil {
				t.Fatalf("%v: %s", err, l)
			}
			runs = append(runs, c)
		}
	}
	if want := 2 * len(spec.Workloads); len(runs) != want {
		t.Fatalf("%d result lines, want %d (every workload, untraced and traced)", len(runs), want)
	}
	for i, c := range runs {
		traced := i%2 == 1
		if c.Correct == nil || !*c.Correct || c.Failed != 0 || c.Attempted < 1 {
			t.Errorf("run %d: correct=%v attempted=%d failed=%d", i, c.Correct, c.Attempted, c.Failed)
		}
		want := spec.metrics(traced)
		if len(c.Metrics) != len(want) {
			t.Errorf("run %d: %d metrics, BENCHMARK.json declares %d", i, len(c.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := c.Metrics[m.Name]
			switch {
			case !nameOK.MatchString(m.Name):
				t.Errorf("metric name %q is outside the contract's alphabet", m.Name)
			case !ok:
				t.Errorf("run %d: metric %s missing", i, m.Name)
			case got.Unit != m.Unit:
				t.Errorf("run %d: %s has unit %q, want %q", i, m.Name, got.Unit, m.Unit)
			case !traced && got.Value == 0:
				t.Errorf("run %d: end-to-end metric %s is 0", i, m.Name)
			}
		}
	}
}

// TestWrongAnswerFailsTheRun flips the corrupt hook: one answer loses a
// match before it is checked, and the run must count it and fail.
func TestWrongAnswerFailsTheRun(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	var stdout bytes.Buffer
	cfg := config{
		seed: 1, workloads: []string{"city-direct"}, passes: 1, smoke: true,
		modes: []bool{false}, out: t.TempDir(), stdout: &stdout, corrupt: true,
	}
	if err := run(cfg, spec, io.Discard); err == nil {
		t.Fatal("a corrupted answer did not fail the run")
	}
	var c contractLine
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &c); err != nil {
		t.Fatal(err)
	}
	if c.Correct == nil || *c.Correct || c.Failed != 1 {
		t.Errorf("correct=%v failed=%d, want false and 1", c.Correct, c.Failed)
	}
}

// TestImportsStayOnTheFacade keeps the benchmark independent of what later
// issues may delete: only three internal packages, and none of the facade
// names that wrap soon-to-go code.
func TestImportsStayOnTheFacade(t *testing.T) {
	allowed := map[string]bool{
		"simsearch/internal/httpapi": true, "simsearch/internal/distrib": true, "simsearch/internal/edit": true,
	}
	forbidden := map[string]bool{"NewAuto": true, "NewDynamic": true, "NewDynamicFrom": true}
	pkgs, err := parser.ParseDir(token.NewFileSet(), ".", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for name, file := range pkg.Files {
			for _, imp := range file.Imports {
				path, _ := strconv.Unquote(imp.Path.Value)
				if strings.HasPrefix(path, "simsearch/internal/") && !allowed[path] {
					t.Errorf("%s imports %s", name, path)
				}
			}
			ast.Inspect(file, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == "simsearch" && forbidden[sel.Sel.Name] {
						t.Errorf("%s uses simsearch.%s", name, sel.Sel.Name)
					}
				}
				return true
			})
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "client", Req: 1, Parent: -1, Start: 0, End: 100},
		{Name: "httpapi", Req: 1, Parent: 0, Start: 10, End: 90},
		{Name: "cache", Req: 1, Parent: 1, Start: 20, End: 80},
		// Two overlapping children count once; one runs past its parent.
		{Name: "shard", Req: 1, Parent: 2, Start: 30, End: 60},
		{Name: "shard", Req: 1, Parent: 2, Start: 40, End: 85},
		{Name: "client", Req: 2, Parent: -1, Start: 200, End: 230},
	}
	want := []int64{20, 20, 10, 30, 45, 30}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d (%s) = %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
	if kids := hasChild(spans); !kids[2] || kids[3] || kids[5] {
		t.Errorf("hasChild = %v", kids)
	}
}

func TestRecorderRebasesParents(t *testing.T) {
	r := newRecorder()
	a := r.begin("a", noSpan)
	r.end(a)
	mark := r.mark()
	b := r.begin("b", a) // parent before the mark
	c := r.begin("c", b)
	r.end(c)
	r.end(b)
	got := r.since(mark)
	if len(got) != 2 || got[0].Parent != -1 || got[1].Parent != 0 || got[1].Req != got[0].Req {
		t.Errorf("since(mark) = %+v", got)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	for i, want := range []float64{2.75, 5.5, 8.25} {
		if got := quantile4(xs, i+1); math.Abs(got-want) > 1e-12 {
			t.Errorf("quartile %d = %v, want %v", i+1, got, want)
		}
	}
	if got := iqr(xs); math.Abs(got-5.5) > 1e-12 {
		t.Errorf("iqr = %v, want 5.5", got)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quantile4([]float64{4, 1, 2}, 1), quantile4([]float64{4, 1, 2}, 3); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of three = %v, %v", q1, q3)
	}
	if median([]float64{7}) != 7 || median(nil) != 0 {
		t.Error("median of one or none")
	}
	asc := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20}
	if p50, p95, p100 := percentile(asc, 0.5), percentile(asc, 0.95), percentile(asc, 1); p50 != 10 || p95 != 19 || p100 != 20 {
		t.Errorf("percentiles = %v %v %v", p50, p95, p100)
	}
}

func TestFloorKeepsTheLowestPerQuery(t *testing.T) {
	f := newFloor(4)
	f.observe(0, []float64{5, 9, 7})
	f.observe(1, []float64{4, 8})
	if got := f.seen(); len(got) != 3 || got[0] != 5 || got[1] != 4 || got[2] != 7 {
		t.Errorf("seen floors = %v", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "p50_us", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "qps", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		m    metricSpec
		a, b sideValue
		want string
	}{
		{lower, sideValue{Median: 100, IQR: 2}, sideValue{Median: 105, IQR: 2}, "ok"},
		{lower, sideValue{Median: 100, IQR: 2}, sideValue{Median: 115, IQR: 2}, "regressed"},
		{lower, sideValue{Median: 100, IQR: 2}, sideValue{Median: 80, IQR: 2}, "ok"},
		{lower, sideValue{Median: 100, IQR: 20}, sideValue{Median: 115, IQR: 2}, "unresolved"},
		{higher, sideValue{Median: 100, IQR: 2}, sideValue{Median: 85, IQR: 2}, "regressed"},
		{higher, sideValue{Median: 100, IQR: 2}, sideValue{Median: 120, IQR: 2}, "ok"},
	} {
		if _, got := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.m.Name, c.a, c.b, got, c.want)
		}
	}
}
