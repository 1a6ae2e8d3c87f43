// Command perfbench is topmine's pipeline benchmark: one command that
// runs a named workload from a seed — raw text → corpus → mined
// phrases → segmentation → PhraseLDA → topics → snapshot → served
// request — checks that the outputs are correct, and prints every
// end-to-end metric by name with its unit. A traced run (--trace 1)
// prints the per-layer metrics instead, with each layer's self time
// and the tracing overhead. BENCHMARK.json at the repository root
// names the workloads and metrics; workloads.go records why each
// workload exists and which end-to-end metric each layer should move.
//
//	perfbench --workload pipeline-abstracts --seed 1 --seconds 20 --trace 0
//	perfbench compare runs-a.jsonl runs-b.jsonl
//
// Every run prints two lines on stdout: an environment header
// ({"env": …}) and, last, the result object {"correct", "attempted",
// "failed", "metrics"}. Concatenated stdout of many runs is what the
// compare mode reads. Diagnostics go to stderr. A failed correctness
// check still prints the result (correct=false) and exits 1.
package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		if code == 0 {
			code = 2
		}
	}
	os.Exit(code)
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	workdir  string
	// tiny shrinks every input to smoke-test size; the smoke test
	// sets it.
	tiny bool
	// keep leaves the run's directory (inputs and outputs) in place;
	// tests compare the inputs of two runs.
	keep bool
}

func run(args []string, stdout, stderr io.Writer) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&cfg.seed, "seed", 1, "workload seed; the same seed generates byte-identical inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "measured phase length in seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build", "directory for generated inputs and trace files")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	if rest := fs.Args(); len(rest) > 0 {
		if rest[0] != "compare" || len(rest) != 3 {
			return 2, fmt.Errorf("usage: perfbench compare <base results> <new results>")
		}
		return compareFiles(rest[1], rest[2], stdout)
	}
	if trace != 0 && trace != 1 {
		return 2, fmt.Errorf("--trace must be 0 or 1")
	}
	cfg.trace = trace == 1
	return runConfig(cfg, stdout, stderr)
}

// runConfig runs one workload and prints the header and result lines.
func runConfig(cfg config, stdout, stderr io.Writer) (int, error) {
	w, ok := workloads[cfg.workload]
	if !ok {
		return 2, fmt.Errorf("unknown --workload %q (have %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	if cfg.seconds <= 0 {
		return 2, fmt.Errorf("--seconds must be positive")
	}

	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return 2, err
	}
	dir, err := os.MkdirTemp(cfg.workdir, "run-"+cfg.workload+"-")
	if err != nil {
		return 2, err
	}
	if !cfg.keep {
		defer os.RemoveAll(dir)
	}

	hdr, err := json.Marshal(map[string]any{"env": envHeader(cfg)})
	if err != nil {
		return 2, err
	}
	fmt.Fprintf(stdout, "%s\n", hdr)

	r := newRun(cfg, dir, stderr)
	if err := w(r); err != nil {
		return 2, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	res := r.result()
	b, err := json.Marshal(res)
	if err != nil {
		return 2, err
	}
	if cfg.trace {
		path := filepath.Join(cfg.workdir, fmt.Sprintf("trace-%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := r.tr.writeFile(path); err != nil {
			return 2, err
		}
		r.logf("spans written to %s", path)
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if !res.Correct {
		return 1, errors.New("correctness checks failed (see stderr)")
	}
	return 0, nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last stdout line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runState is what a workload records into while it runs.
type runState struct {
	cfg    config
	dir    string
	log    io.Writer
	tr     *tracer
	e2e    map[string]metric
	layer  map[string]metric
	tried  int
	failed int
}

func newRun(cfg config, dir string, log io.Writer) *runState {
	return &runState{
		cfg:   cfg,
		dir:   dir,
		log:   log,
		tr:    newTracer(),
		e2e:   map[string]metric{},
		layer: map[string]metric{},
	}
}

// check records one operation; a false ok counts it as failed.
func (r *runState) check(ok bool, format string, args ...any) {
	r.tried++
	if !ok {
		r.failed++
		fmt.Fprintf(r.log, "perfbench: CHECK FAILED: "+format+"\n", args...)
	}
}

func (r *runState) logf(format string, args ...any) {
	fmt.Fprintf(r.log, "perfbench: "+format+"\n", args...)
}

// setE2E and setLayer record a metric under its name and unit.
func (r *runState) setE2E(name, unit string, v float64)   { r.e2e[name] = metric{v, unit} }
func (r *runState) setLayer(name, unit string, v float64) { r.layer[name] = metric{v, unit} }

func (r *runState) result() result {
	ms := r.e2e
	if r.cfg.trace {
		ms = r.layer
	}
	attempted := r.tried
	if attempted == 0 {
		// A run that reached no check has nothing it can vouch for.
		attempted, r.failed = 1, 1
	}
	return result{Correct: r.failed == 0, Attempted: attempted, Failed: r.failed, Metrics: ms}
}

// envHeader is recorded with every result: the core count and
// toolchain a number was measured with, and what was measured.
func envHeader(cfg config) map[string]any {
	return map[string]any{
		"workload":      cfg.workload,
		"seed":          cfg.seed,
		"seconds":       cfg.seconds,
		"trace":         cfg.trace,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"goos_goarch":   runtime.GOOS + "/" + runtime.GOARCH,
		"cpu":           cpuModel(),
		"commit":        os.Getenv("PERFBENCH_COMMIT"),
		"source_sha256": sourceDigest(),
		"time":          time.Now().UTC().Format(time.RFC3339),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module files of the checkout
// the benchmark was built from, so a result identifies the code it
// measured even where the checkout is not a git repository.
func sourceDigest() string {
	root := ".."
	if _, err := os.Stat("go.mod"); err == nil {
		if _, err := os.Stat("perfbench"); err == nil {
			root = "."
		}
	}
	var files []string
	filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && p != root {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
