package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// runTiny runs one workload at smoke-test size, keeping its directory,
// and returns the parsed result and the run directory.
func runTiny(t *testing.T, workload string, seed uint64, trace bool) (result, string) {
	t.Helper()
	workdir := t.TempDir()
	cfg := config{workload: workload, seed: seed, seconds: 0.3, trace: trace, workdir: workdir, tiny: true, keep: true}
	var out, errb bytes.Buffer
	code, err := runConfig(cfg, &out, &errb)
	if code != 0 || err != nil {
		t.Fatalf("%s trace=%v: exit %d, %v\n%s", workload, trace, code, err, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("%s: want a header and a result line, got %d lines", workload, len(lines))
	}
	var hdr struct {
		Env map[string]any `json:"env"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil {
		t.Fatalf("%s: header: %v", workload, err)
	}
	for _, k := range []string{"nproc", "gomaxprocs", "go", "cpu", "commit", "seed", "workload"} {
		if _, ok := hdr.Env[k]; !ok {
			t.Errorf("%s: environment header lacks %q", workload, k)
		}
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[1]), &keys); err != nil {
		t.Fatalf("%s: result: %v", workload, err)
	}
	if len(keys) != 4 {
		t.Errorf("%s: result keys %v, want correct, attempted, failed, metrics", workload, keys)
	}
	var res result
	if err := json.Unmarshal([]byte(lines[1]), &res); err != nil {
		t.Fatalf("%s: result: %v", workload, err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", workload, res.Correct, res.Attempted, res.Failed)
	}
	dirs, _ := filepath.Glob(filepath.Join(workdir, "run-"+workload+"-*"))
	if len(dirs) != 1 {
		t.Fatalf("%s: want one run directory, got %v", workload, dirs)
	}
	return res, dirs[0]
}

// TestSmoke runs every workload of BENCHMARK.json at a tiny size,
// untraced and traced, and checks that each emits exactly the metrics
// BENCHMARK.json names, with their units; that the same seed gives
// byte-identical inputs; and that two train-sharded runs with the same
// seed render byte-identical topics.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	e2e, layer := map[string]string{}, map[string]string{}
	for _, m := range spec.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		layer[m.Name] = m.Unit
	}
	for _, w := range spec.Workloads {
		t.Run(w.Name, func(t *testing.T) {
			plain, dirA := runTiny(t, w.Name, 7, false)
			checkMetrics(t, w.Name, plain.Metrics, e2e)
			traced, dirB := runTiny(t, w.Name, 7, true)
			checkMetrics(t, w.Name+" traced", traced.Metrics, layer)

			inputs := sameFiles(t, dirA, dirB, "*.txt")
			if inputs == 0 {
				t.Errorf("no generated inputs found in %s", dirA)
			}
			if w.Name == "train-sharded" {
				if sameFiles(t, dirA, dirB, "topics.txt") != 1 {
					t.Error("train-sharded wrote no topics.txt")
				}
			}
		})
	}
}

func checkMetrics(t *testing.T, what string, got map[string]metric, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := got[name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", what, name)
		case m.Unit != unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", what, name, m.Unit, unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s = %v", what, name, m.Value)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: metric %s is not in BENCHMARK.json", what, name)
		}
		if !metricName.MatchString(name) {
			t.Errorf("%s: metric name %q", what, name)
		}
	}
}

// sameFiles asserts that every file matching pattern in dir a has a
// byte-identical twin in dir b, and returns how many it compared.
func sameFiles(t *testing.T, a, b, pattern string) int {
	t.Helper()
	files, _ := filepath.Glob(filepath.Join(a, pattern))
	for _, fa := range files {
		x, err := os.ReadFile(fa)
		if err != nil {
			t.Fatal(err)
		}
		y, err := os.ReadFile(filepath.Join(b, filepath.Base(fa)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(x, y) {
			t.Errorf("%s differs between two runs with the same seed", filepath.Base(fa))
		}
	}
	return len(files)
}

func TestInputsDependOnSeed(t *testing.T) {
	a, b := t.TempDir(), t.TempDir()
	spec := wideVocabSpec()
	pa, err := writeDocs(a, "x.txt", spec, 50, 1)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := writeDocs(b, "x.txt", spec, 50, 2)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := os.ReadFile(pa)
	y, _ := os.ReadFile(pb)
	if bytes.Equal(x, y) {
		t.Error("seeds 1 and 2 generated identical inputs")
	}
}

func TestWideVocabStems(t *testing.T) {
	spec := wideVocabSpec()
	seen := map[string]bool{}
	for _, tp := range spec.Topics {
		for _, w := range tp.Unigrams {
			if seen[w] {
				t.Fatalf("word %q repeats", w)
			}
			seen[w] = true
		}
	}
	if len(seen) < 10000 {
		t.Errorf("wide vocabulary has %d stems, want at least 10000", len(seen))
	}
}

// TestQuartiles pins the quartile rule to Python's
// statistics.quantiles(n=4) and statistics.median.
func TestQuartiles(t *testing.T) {
	cases := []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
	}
	for _, c := range cases {
		q1, m, q3 := quartiles(c.xs)
		if q1 != c.q1 || m != c.m || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, m, q3, c.q1, c.m, c.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	base := []float64{10, 10.1, 9.9, 10, 10.05}
	cases := []struct {
		name  string
		next  []float64
		bound float64
		want  string
	}{
		{"same", []float64{10, 10.1, 9.95, 10.02, 10}, 0.05, verdictWithin},
		{"slower", []float64{12, 12.1, 11.9, 12, 12.05}, 0.05, verdictWorse},
		{"noisy", []float64{8, 12, 10, 14, 6}, 0.05, verdictUnresolved},
		{"noisy but every run better", []float64{5, 6, 7, 8, 9}, 0.05, verdictWithin},
	}
	for _, c := range cases {
		if got := verdict(base, c.next, c.bound, false); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}

// TestCompareFailedRun: a run that failed a check makes its workload
// worse even when every metric reads the same as the base.
func TestCompareFailedRun(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, correct ...bool) string {
		var b strings.Builder
		for _, ok := range correct {
			failed := 0
			if !ok {
				failed = 1
			}
			b.WriteString(`{"env":{"workload":"w","trace":false}}` + "\n")
			res := result{Correct: ok, Attempted: 100, Failed: failed, Metrics: map[string]metric{"job_s": {1, "s"}}}
			line, _ := json.Marshal(res)
			b.Write(append(line, '\n'))
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	good := write("good.jsonl", true, true, true)
	bad := write("bad.jsonl", true, false, true)
	for _, c := range []struct {
		base, next string
		code       int
	}{{good, good, 0}, {good, bad, 1}, {bad, good, 1}} {
		var out bytes.Buffer
		code, err := compareFiles(c.base, c.next, &out)
		if err != nil {
			t.Fatal(err)
		}
		if code != c.code {
			t.Errorf("%s vs %s: exit %d, want %d\n%s", filepath.Base(c.base), filepath.Base(c.next), code, c.code, out.String())
		}
	}
}
