// Command benchgate is the suite-level regression gate: a paired A/B of
// the suite benchmark that BENCHMARK.json declares, between a base
// revision and the current checkout.
//
// It checks the base revision out with `git worktree` under
// .bench_build/ab/base; the current checkout is the change side. For
// every workload of BENCHMARK.json it runs the benchmark command on
// both sides in alternating pairs: both runs of a pair use the same
// seed, and the side that runs first swaps from pair to pair, so slow
// drift on a shared host lands on both sides alike. The gate fails when
// a run exits non-zero or reports "correct": false, when a run lacks an
// end-to-end metric of BENCHMARK.json, or when a metric's change-side
// median is worse than its base-side median by more than the metric's
// bound.
//
// Run it from the repository root:
//
//	go run ./cmd/benchgate -base REV
//
// Three workloads × 5 pairs × 2 sides of 10 s runs take about six
// minutes, plus one benchmark build per side.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"fdgrid/internal/cliutil"
)

const (
	pairs   = 5  // alternating base/change pairs per workload
	seconds = 10 // measuring time of each benchmark run
)

// The two sides of a pair, as indices into [2] arrays.
const (
	base = iota
	change
)

var sideNames = [2]string{"base", "change"}

// spec is the part of BENCHMARK.json the gate reads.
type spec struct {
	Command   []string `json:"command"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"` // "higher" or "lower"
		Bound  float64 `json:"bound"`  // largest tolerated relative worsening
	} `json:"end_to_end"`
}

// outcome is one benchmark run: the last line it printed on standard
// output and the error it exited with.
type outcome struct {
	line string
	err  error
}

func main() {
	rev := flag.String("base", "", "git revision to compare the current checkout against")
	flag.Parse()
	if *rev == "" || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: benchgate -base REV")
		os.Exit(2)
	}
	if err := run(*rev); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

func run(rev string) error {
	blob, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("%w (run from the repository root)", err)
	}
	var sp spec
	if err := json.Unmarshal(blob, &sp); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if len(sp.Command) == 0 {
		return errors.New("BENCHMARK.json declares no command")
	}
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	baseDir := filepath.Join(root, ".bench_build", "ab", "base")
	release(baseDir)
	if err := git("worktree", "add", "--detach", baseDir, rev); err != nil {
		return err
	}
	defer release(baseDir)

	dirs := [2]string{baseDir, root}
	runs := make(map[string][2][]outcome)
	for _, w := range sp.Workloads {
		var sides [2][]outcome
		for p := 0; p < pairs; p++ {
			first := p % 2
			for _, s := range []int{first, 1 - first} {
				start := time.Now()
				o := runOnce(sp.Command, dirs[s], w.Name, p+1)
				status := "ok"
				if _, err := parse(o); err != nil {
					status = err.Error()
				}
				fmt.Fprintf(os.Stderr, "%s pair %d/%d %-6s %5.1fs %s\n",
					w.Name, p+1, pairs, sideNames[s], time.Since(start).Seconds(), status)
				sides[s] = append(sides[s], o)
			}
		}
		runs[w.Name] = sides
	}
	table, fails := judge(sp, runs)
	fmt.Printf("benchgate: %s (base) vs the current checkout (change), median of %d runs per side\n\n%s", rev, pairs, table)
	if len(fails) > 0 {
		for _, f := range fails {
			fmt.Println("FAIL", f)
		}
		return fmt.Errorf("%d failures", len(fails))
	}
	return nil
}

// runOnce runs the benchmark command in dir on one workload and seed.
func runOnce(command []string, dir, workload string, seed int) outcome {
	args := append(slices.Clone(command[1:]), "--workload", workload,
		"--seed", strconv.Itoa(seed), "--seconds", strconv.Itoa(seconds), "--trace", "0")
	c := exec.Command(command[0], args...)
	c.Dir = dir
	out, err := c.Output()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		err = fmt.Errorf("%w: %s", err, lastLine(exit.Stderr))
	}
	return outcome{line: lastLine(out), err: err}
}

// judge compares the two sides: runs[w] holds workload w's outcomes per
// side, in pair order. It returns the comparison table and one line per
// failure.
func judge(sp spec, runs map[string][2][]outcome) (string, []string) {
	var fails []string
	if len(sp.Workloads) == 0 || len(sp.EndToEnd) == 0 {
		fails = append(fails, "BENCHMARK.json declares no workload or no end-to-end metric: the gate would gate nothing")
	}
	for _, e := range sp.EndToEnd {
		if e.Better != "higher" && e.Better != "lower" {
			fails = append(fails, fmt.Sprintf("%s: better is %q, want higher or lower", e.Name, e.Better))
		}
	}
	tab := &cliutil.Table{Headers: []string{"workload", "metric", "base", "change", "delta", "bound", "verdict"}}
	for _, w := range sp.Workloads {
		sides := runs[w.Name]
		var vals [2]map[string][]float64
		for s := range sides {
			if len(sides[s]) == 0 {
				fails = append(fails, fmt.Sprintf("%s: no %s runs", w.Name, sideNames[s]))
			}
			vals[s] = make(map[string][]float64)
			for i, o := range sides[s] {
				m, err := parse(o)
				if err != nil {
					fails = append(fails, fmt.Sprintf("%s: %s run %d: %v", w.Name, sideNames[s], i+1, err))
					continue
				}
				for _, e := range sp.EndToEnd {
					v, ok := m[e.Name]
					if !ok {
						fails = append(fails, fmt.Sprintf("%s: %s run %d: no metric %s", w.Name, sideNames[s], i+1, e.Name))
						continue
					}
					vals[s][e.Name] = append(vals[s][e.Name], v)
				}
			}
		}
		for _, e := range sp.EndToEnd {
			bv, cv := vals[base][e.Name], vals[change][e.Name]
			if len(bv) == 0 || len(cv) == 0 {
				continue // already a failure above
			}
			bm, cm := median(bv), median(cv)
			delta := 0.0
			if cm != bm {
				delta = (cm - bm) / math.Abs(bm)
			}
			worse := delta
			if e.Better == "higher" {
				worse = -delta
			}
			verdict := "ok"
			if worse > e.Bound {
				verdict = "FAIL"
				fails = append(fails, fmt.Sprintf("%s: %s: %.4g → %.4g, %.1f%% worse, bound %.0f%%",
					w.Name, e.Name, bm, cm, worse*100, e.Bound*100))
			}
			tab.Add(w.Name, e.Name, fmt.Sprintf("%.4g", bm), fmt.Sprintf("%.4g", cm),
				fmt.Sprintf("%+.1f%%", delta*100), fmt.Sprintf("%.0f%%", e.Bound*100), verdict)
		}
	}
	return tab.String(), fails
}

// parse reads one run's metrics off its result line.
func parse(o outcome) (map[string]float64, error) {
	var r struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	err := json.Unmarshal([]byte(o.line), &r)
	switch {
	case err == nil && !r.Correct:
		return nil, errors.New(`reported "correct": false`)
	case o.err != nil:
		return nil, o.err
	case err != nil:
		return nil, fmt.Errorf("no result line: %w", err)
	}
	m := make(map[string]float64, len(r.Metrics))
	for name, v := range r.Metrics {
		m[name] = v.Value
	}
	return m, nil
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func lastLine(b []byte) string {
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	return lines[len(lines)-1]
}

// release removes the base worktree and its registration, if any. It is
// best effort: a worktree left in the way makes the next `git worktree
// add` fail with git's own error.
func release(dir string) {
	git("worktree", "remove", "--force", dir)
	os.RemoveAll(dir)
	git("worktree", "prune")
}

func git(args ...string) error {
	out, err := exec.Command("git", args...).CombinedOutput()
	if err != nil {
		return fmt.Errorf("git %s: %w: %s", strings.Join(args, " "), err, strings.TrimSpace(string(out)))
	}
	return nil
}
