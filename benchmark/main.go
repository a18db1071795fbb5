// Command benchmark is this repository's one fixed benchmark: four
// workloads, the end-to-end metrics of BENCHMARK.json measured with tracing
// off, and a per-layer table from a second, traced run. See README.md.
//
// The driver runs it through run.sh as
//
//	bash benchmark/run.sh --workload city-serve --seed 7 --seconds 10 --trace 0
//
// and reads the last line of standard output. Without --workload every
// workload runs in both modes and the result is also written to -out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// workloads maps each workload of BENCHMARK.json to the code that runs it.
var workloads = map[string]func(*bench) error{
	"city-direct": func(b *bench) error { return runDirect(b, cityDirect) },
	"dna-direct":  func(b *bench) error { return runDirect(b, dnaDirect) },
	"city-serve":  runServe,
	"city-live":   runLive,
}

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

// cli parses args and runs; it returns the process exit code.
func cli(args []string, stdout, stderr io.Writer) int {
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 20130322, "seed of the input generators (the program under test sees only generated inputs)")
	names := fs.String("workload", "", "workloads to run, comma-separated (default: all)")
	seconds := fs.Float64("seconds", float64(spec.RunSeconds), "length of the timed phase of one run")
	passes := fs.Int("passes", 0, "fixed number of passes instead of the time budget")
	smoke := fs.Bool("smoke", false, "corpus x0.02, one pass: a wiring check, not a measurement")
	trace := fs.String("trace", "both", "0 or false: end-to-end run only; 1 or true: traced run only; both")
	out := fs.String("out", filepath.Join(spec.Paths[0], "out"), "directory for result, trace and scratch files")
	compare := fs.Bool("compare", false, "compare two sides given as arguments, each a comma-separated list of result files, and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two arguments, each a comma-separated list of result files")
			return 2
		}
		return compareFiles(spec, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}

	cfg := config{seed: *seed, seconds: *seconds, passes: *passes, smoke: *smoke, out: *out, stdout: stdout}
	if cfg.smoke && cfg.passes == 0 {
		cfg.passes = 1
	}
	switch *trace {
	case "0", "false":
		cfg.modes = []bool{false}
	case "1", "true":
		cfg.modes = []bool{true}
	case "both":
		cfg.modes = []bool{false, true}
	default:
		fmt.Fprintf(stderr, "benchmark: -trace %q: want 0, 1 or both\n", *trace)
		return 2
	}
	if *names != "" {
		cfg.workloads = strings.Split(*names, ",")
	} else {
		for _, w := range spec.Workloads {
			cfg.workloads = append(cfg.workloads, w.Name)
		}
	}
	for _, w := range cfg.workloads {
		if workloads[w] == nil {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", w)
			return 2
		}
	}
	if err := run(cfg, spec, stderr); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// resultFile is what a run writes to -out and what -compare reads.
type resultFile struct {
	Stamp stamp       `json:"stamp"`
	Runs  []runResult `json:"runs"`
	// Claim is always null: the benchmark measures, it claims no gain.
	Claim *string `json:"claim"`
}

// run executes every selected workload in every selected mode. It returns
// an error when an operation failed or a metric could not be reported.
func run(cfg config, spec *benchSpec, stderr io.Writer) error {
	// Two shards, two clients and a writer beside a reader are what the
	// workloads are sized for; on one processor they would silently measure
	// a different system.
	if runtime.GOMAXPROCS(0) < 2 {
		return fmt.Errorf("GOMAXPROCS is %d: the workloads need at least 2", runtime.GOMAXPROCS(0))
	}
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return err
	}
	file := resultFile{Stamp: newStamp(cfg)}
	var failed int64
	for _, name := range cfg.workloads {
		for _, traced := range cfg.modes {
			b := &bench{
				cfg: cfg, traced: traced,
				sizes: map[string]int{}, samples: map[string][]float64{},
				reported: map[string]float64{}, higher: map[string]bool{}, floors: map[string]floor{},
				complain: func(format string, args ...any) {
					fmt.Fprintf(stderr, "benchmark: %s: "+format+"\n", append([]any{name}, args...)...)
				},
			}
			for _, m := range spec.metrics(traced) {
				b.higher[m.Name] = m.Better == "higher"
			}
			if traced {
				b.rec = newRecorder()
			}
			if err := workloads[name](b); err != nil {
				return fmt.Errorf("%s: %w", name, err)
			}
			res, err := b.result(spec, name)
			if err != nil {
				return err
			}
			for k, v := range b.sizes {
				file.Stamp.Sizes[name+"."+k] = v
			}
			if traced {
				path := filepath.Join(cfg.out, "trace-"+name+".csv")
				if err := writeSpans(path, b.rec.since(0)); err != nil {
					return err
				}
			}
			if err := res.print(cfg.stdout, b.note); err != nil {
				return err
			}
			file.Runs = append(file.Runs, res)
			failed += res.Failed
		}
	}
	raw, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(cfg.out, "result.json"), raw, 0o644); err != nil {
		return err
	}
	if len(file.Runs) > 1 {
		fmt.Fprintf(cfg.stdout, "{\"runs\": %d, \"failed\": %d, \"claim\": null}\n", len(file.Runs), failed)
	}
	if failed > 0 {
		return fmt.Errorf("%d operations failed", failed)
	}
	return nil
}
