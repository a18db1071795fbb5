package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// loadSide reads one side of a comparison: a comma-separated list of result
// files, one per run of that side.
func loadSide(paths string) ([]resultFile, error) {
	var out []resultFile
	for _, p := range strings.Split(paths, ",") {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var f resultFile
		if err := json.Unmarshal(raw, &f); err != nil {
			return nil, fmt.Errorf("parse %s: %w", p, err)
		}
		out = append(out, f)
	}
	return out, nil
}

// sideValue is one side's figure for one workload and end-to-end metric:
// the median and inter-quartile range of the values its runs reported.
type sideValue struct {
	Median, IQR float64
	N           int
}

func sideOf(files []resultFile, workload, metric string) sideValue {
	var xs []float64
	for _, f := range files {
		for _, r := range f.Runs {
			if m, ok := r.Metrics[metric]; ok && r.Workload == workload && !r.Traced {
				xs = append(xs, m.Value)
			}
		}
	}
	return sideValue{Median: median(xs), IQR: iqr(xs), N: len(xs)}
}

// verdict classifies one workload x end-to-end metric. worse is how much b's
// median is worse than a's as a share of a's (negative when b is better). A
// spread (IQR as a share of its median) wider than the bound on either side
// leaves the pair unresolved: the difference cannot be told from noise.
func verdict(m metricSpec, a, b sideValue) (worse float64, v string) {
	worse = (b.Median - a.Median) / a.Median
	if m.Better == "higher" {
		worse = -worse
	}
	switch {
	case a.IQR/a.Median > m.Bound || b.IQR/b.Median > m.Bound:
		return worse, "unresolved"
	case worse > m.Bound:
		return worse, "regressed"
	}
	return worse, "ok"
}

// compareFiles prints, per workload and end-to-end metric, both sides'
// medians and spreads over their runs, the relative difference with its
// base, and the verdict. It returns 1 when any pair regressed.
func compareFiles(spec *benchSpec, pathsA, pathsB string, stdout, stderr io.Writer) int {
	a, err := loadSide(pathsA)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	b, err := loadSide(pathsB)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	fmt.Fprintf(stdout, "a: %d runs of %s   b: %d runs of %s\n", len(a), a[0].Stamp.GitSHA, len(b), b[0].Stamp.GitSHA)
	fmt.Fprintf(stdout, "%-12s %-19s %11s %7s %11s %7s  %-24s %5s  %s\n",
		"workload", "metric", "a median", "spread", "b median", "spread", "b worse than a by", "bound", "verdict")
	exit := 0
	for _, w := range spec.Workloads {
		for _, m := range spec.EndToEnd {
			va, vb := sideOf(a, w.Name, m.Name), sideOf(b, w.Name, m.Name)
			if va.N == 0 || vb.N == 0 {
				continue
			}
			worse, v := verdict(m, va, vb)
			if v == "regressed" {
				exit = 1
			}
			fmt.Fprintf(stdout, "%-12s %-19s %11.5g %6.1f%% %11.5g %6.1f%%  %+6.1f%% of %-11.5g %4.0f%%  %s\n",
				w.Name, m.Name, va.Median, 100*va.IQR/va.Median, vb.Median, 100*vb.IQR/vb.Median,
				100*worse, va.Median, 100*m.Bound, v)
		}
		if fa, fb := failedOps(a, w.Name), failedOps(b, w.Name); fb > fa {
			exit = 1
			fmt.Fprintf(stdout, "%-12s %-19s %11d %7s %11d %7s  %-24s %4.0f%%  regressed\n",
				w.Name, "failed operations", fa, "", fb, "", "", 0.0)
		}
	}
	return exit
}

func failedOps(files []resultFile, workload string) (n int64) {
	for _, f := range files {
		for _, r := range f.Runs {
			if r.Workload == workload {
				n += r.Failed
			}
		}
	}
	return n
}
