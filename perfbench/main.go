// Command perfbench is the repository's end-to-end benchmark.  One
// invocation runs one seeded workload against the public APIs of the
// internal packages, checks every output it produces, and prints one
// JSON line with the metrics named in BENCHMARK.json.  From the
// repository root, run.sh builds it and runs it:
//
//	bash perfbench/run.sh -workload campaign-paper -seed 1987 -seconds 50 -trace 0
//
// With -trace 0 the line carries the end-to-end metrics, measured with
// no instrumentation installed.  With -trace 1 passes alternate between
// untraced and traced: the traced ones install timing wrappers around
// each layer the workload calls (engine runner, store filesystem, HTTP
// handler and transport), record spans in memory, and the line carries
// the per-layer metrics.  The spans and a detail record of every run
// are written under <root>/.bench_build when the run ends.
//
// See README.md in this directory for the workloads, the metrics and
// the layer each per-layer metric belongs to.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs one workload and prints its summary line.
// The exit code is 0 for a correct run, 1 for a run whose outputs
// were wrong (the summary is still printed), and 2 when the run could
// not be made at all (nothing is printed on stdout).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+fmt.Sprint(workloadNames()))
	seed := fs.Uint64("seed", defaultSeed, "workload seed; the pinned fingerprints apply to the default")
	seconds := fs.Float64("seconds", 10, "measured time per run; at least two passes always run")
	traced := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from traced passes")
	root := fs.String("root", ".", "checkout root; scratch files go under <root>/.bench_build")
	size := fs.String("size", "full", "input size: full, or tiny for the benchmark's own tests")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace must be 0 or 1, got %d\n", *traced)
		return 2
	}
	if *size != "full" && *size != "tiny" {
		fmt.Fprintf(stderr, "perfbench: -size must be full or tiny, got %q\n", *size)
		return 2
	}

	cfg := runConfig{
		workload: *name,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *traced == 1,
		root:     *root,
		tiny:     *size == "tiny",
	}
	res, err := runBench(cfg, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	line, err := json.Marshal(res.summary())
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: encoding summary:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runConfig is one invocation's settings.
type runConfig struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	root     string
	tiny     bool
}

// runBench checks that root is a checkout of this repository, makes
// the run's scratch directory, runs the workload and writes its
// detail record and spans.
func runBench(cfg runConfig, log io.Writer) (*result, error) {
	w, procs, ok := newWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (valid: %v)", cfg.workload, workloadNames())
	}
	runtime.GOMAXPROCS(min(runtime.NumCPU(), procs))
	if _, err := os.Stat(filepath.Join(cfg.root, "go.mod")); err != nil {
		return nil, fmt.Errorf("%s is not a checkout of the repository: %w", cfg.root, err)
	}
	runID := fmt.Sprintf("%s-s%d-t%d-%d", cfg.workload, cfg.seed, boolInt(cfg.trace), time.Now().UnixNano())
	build := filepath.Join(cfg.root, ".bench_build")
	scratch := filepath.Join(build, "scratch", runID)
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, fmt.Errorf("making scratch directory: %w", err)
	}
	// Stores are removed with the scratch directory when the run ends,
	// not between passes: deleting thousands of files can slow the I/O
	// that follows (a filesystem mounted with discard trims them), which
	// would land in the next pass.
	defer os.RemoveAll(scratch)

	env := &env{seed: cfg.seed, tiny: cfg.tiny, scratch: scratch, pins: pinnedFingerprints()}
	res, tr, err := drive(cfg, w, env, runID, log)
	if err != nil {
		return nil, err
	}
	res.Machine = describeMachine(cfg.root)
	fmt.Fprintf(log, "perfbench: machine %+v\n", res.Machine)
	if err := writeRecords(build, runID, res, tr); err != nil {
		return nil, err
	}
	return res, nil
}

// writeRecords writes the run's detail record and, for traced runs,
// its spans, under build/results.
func writeRecords(build, runID string, res *result, tr *tracer) error {
	dir := filepath.Join(build, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("making results directory: %w", err)
	}
	if tr != nil {
		res.SpansFile = filepath.Join(dir, runID+".spans.json")
		if err := writeJSONFile(res.SpansFile, tr.dump()); err != nil {
			return err
		}
	}
	return writeJSONFile(filepath.Join(dir, runID+".json"), res)
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding %s: %w", filepath.Base(path), err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing %s: %w", filepath.Base(path), err)
	}
	return nil
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
