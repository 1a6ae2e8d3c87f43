package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the compare mode reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
}

func loadSpec() (*benchSpec, error) {
	var b []byte
	var err error
	for _, p := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if b, err = os.ReadFile(p); err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("BENCHMARK.json not found in . or ..: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// runSet maps workload → its untraced runs.
type runSet map[string]*workloadRuns

// workloadRuns is one workload's untraced runs: one value per run for
// each metric, and the runs' correctness.
type workloadRuns struct {
	metrics   map[string][]float64
	runs      int
	incorrect int // runs with correct=false
	attempted int
	failed    int // failed operations over all runs
}

// readRuns parses concatenated benchmark stdout: each result line is
// attributed to the workload of the env header before it. Traced runs
// carry no end-to-end metrics and are skipped.
func readRuns(path string) (runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := runSet{}
	var workload string
	var traced bool
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var rec struct {
			Env *struct {
				Workload string `json:"workload"`
				Trace    bool   `json:"trace"`
			} `json:"env"`
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			continue // build output or other noise
		}
		switch {
		case rec.Env != nil:
			workload, traced = rec.Env.Workload, rec.Env.Trace
		case rec.Metrics != nil && workload != "" && !traced:
			w := out[workload]
			if w == nil {
				w = &workloadRuns{metrics: map[string][]float64{}}
				out[workload] = w
			}
			w.runs++
			w.attempted += rec.Attempted
			w.failed += rec.Failed
			if !rec.Correct {
				w.incorrect++
			}
			for name, m := range rec.Metrics {
				w.metrics[name] = append(w.metrics[name], m.Value)
			}
		}
	}
	return out, sc.Err()
}

// Verdicts of a comparison of two sets of runs.
const (
	verdictWithin     = "within bound"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// verdict compares the new runs b against the base runs a for a metric
// whose better direction is higher when higherBetter. It is worse when
// b's median is worse than a's by more than bound × a's median, and
// unresolved when either side's spread (quartile distance ÷ median)
// exceeds the bound, unless every b run reads better than every a run.
func verdict(a, b []float64, bound float64, higherBetter bool) string {
	if len(a) == 0 || len(b) == 0 {
		return verdictUnresolved
	}
	if spread(a) > bound || spread(b) > bound {
		if allBetter(a, b, higherBetter) {
			return verdictWithin
		}
		return verdictUnresolved
	}
	ma, mb := median(a), median(b)
	worse := mb - ma
	if higherBetter {
		worse = ma - mb
	}
	if worse > bound*math.Abs(ma) {
		return verdictWorse
	}
	return verdictWithin
}

// spread is the distance between the quartiles as a share of the
// median.
func spread(xs []float64) float64 {
	q1, m, q3 := quartiles(xs)
	if m == 0 {
		if q3 == q1 {
			return 0
		}
		return 1e9
	}
	return (q3 - q1) / math.Abs(m)
}

func allBetter(a, b []float64, higherBetter bool) bool {
	for _, x := range a {
		for _, y := range b {
			if (higherBetter && y <= x) || (!higherBetter && y >= x) {
				return false
			}
		}
	}
	return true
}

// compareFiles prints one block per workload: for each end-to-end
// metric, each side's median, quartiles and spread, and the verdict. A
// spread above a third of the bound is flagged: the benchmark is meant
// to stay below it. A first row compares the runs' correctness: it is
// worse when any run of either set failed a check, whatever the
// metrics say, since a failed operation may not hide inside a metric's
// bound. It exits 1 when any row is worse.
func compareFiles(basePath, newPath string, w io.Writer) (int, error) {
	spec, err := loadSpec()
	if err != nil {
		return 2, err
	}
	base, err := readRuns(basePath)
	if err != nil {
		return 2, err
	}
	next, err := readRuns(newPath)
	if err != nil {
		return 2, err
	}
	names := map[string]bool{}
	for wl := range base {
		names[wl] = true
	}
	for wl := range next {
		names[wl] = true
	}
	var wls []string
	for wl := range names {
		wls = append(wls, wl)
	}
	sort.Strings(wls)
	code := 0
	for _, wl := range wls {
		bw, nw := base.get(wl), next.get(wl)
		counts := map[string]int{}
		v := verdictWithin
		if bw.incorrect > 0 || nw.incorrect > 0 {
			v = verdictWorse
		}
		counts[v]++
		lines := []string{fmt.Sprintf("  %-20s %-28s %-28s %s", "checks", bw.checks(), nw.checks(), v)}
		for _, m := range spec.EndToEnd {
			a, b := bw.metrics[m.Name], nw.metrics[m.Name]
			v = verdict(a, b, m.Bound, m.Better == "higher")
			counts[v]++
			lines = append(lines, fmt.Sprintf("  %-20s %-28s %-28s %s", m.Name+" ("+m.Unit+")", side(a, m.Bound), side(b, m.Bound), v))
		}
		if counts[verdictWorse] > 0 {
			code = 1
		}
		fmt.Fprintf(w, "%s: runs %d vs %d; %d within bound, %d worse, %d unresolved\n", wl,
			bw.runs, nw.runs, counts[verdictWithin], counts[verdictWorse], counts[verdictUnresolved])
		fmt.Fprintf(w, "  %-20s %-28s %-28s %s\n", "metric", "base median [q1 q3] spread", "new median [q1 q3] spread", "verdict")
		fmt.Fprintln(w, strings.Join(lines, "\n"))
	}
	return code, nil
}

// side renders one set of values; "!" marks a spread above a third of
// the bound.
func side(xs []float64, bound float64) string {
	if len(xs) == 0 {
		return "-"
	}
	q1, m, q3 := quartiles(xs)
	flag := ""
	if spread(xs) > bound/3 {
		flag = "!"
	}
	return fmt.Sprintf("%.4g [%.4g %.4g] %.1f%%%s", m, q1, q3, 100*spread(xs), flag)
}

// get returns a workload's runs, empty when the set has none.
func (s runSet) get(wl string) *workloadRuns {
	if w := s[wl]; w != nil {
		return w
	}
	return &workloadRuns{metrics: map[string][]float64{}}
}

// checks renders the runs' correctness.
func (w *workloadRuns) checks() string {
	return fmt.Sprintf("%d/%d failed; %d bad runs", w.failed, w.attempted, w.incorrect)
}
