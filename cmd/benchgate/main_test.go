package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"testing"
)

const testSpec = `{
  "command": ["bash", "suitebench/run.sh"],
  "workloads": [{"name": "w1"}, {"name": "w2"}],
  "end_to_end": [
    {"name": "cells_per_s", "better": "higher", "bound": 0.25},
    {"name": "cell_ms.p90", "better": "lower", "bound": 0.25},
    {"name": "pass_ratio", "better": "higher", "bound": 0.01}
  ]
}`

// baseMetrics is every base run's result; a case edits a copy for the
// change side.
var baseMetrics = map[string]float64{"cells_per_s": 40, "cell_ms.p90": 100, "pass_ratio": 1}

// resultLine renders a suitebench-style result line.
func resultLine(correct bool, metrics map[string]float64) string {
	var parts []string
	for _, name := range []string{"cells_per_s", "cell_ms.p90", "pass_ratio"} {
		if v, ok := metrics[name]; ok {
			parts = append(parts, fmt.Sprintf("%q:{\"value\":%g,\"unit\":\"x\"}", name, v))
		}
	}
	return fmt.Sprintf(`{"correct":%t,"attempted":100,"failed":0,"metrics":{%s}}`, correct, strings.Join(parts, ","))
}

func with(name string, v float64) map[string]float64 {
	m := make(map[string]float64, len(baseMetrics))
	for k, x := range baseMetrics {
		m[k] = x
	}
	m[name] = v
	return m
}

func without(name string) map[string]float64 {
	m := with(name, 0)
	delete(m, name)
	return m
}

// TestJudge runs the gate's verdict over synthetic result lines: five
// runs per side, every base run at baseMetrics and the change side as
// each case sets it, on workload w1 only unless the case says otherwise.
func TestJudge(t *testing.T) {
	cases := []struct {
		name     string
		change   outcome
		dropW2   bool
		wantFail string // substring of a failure line; "" = passes
	}{
		{"identical", outcome{line: resultLine(true, baseMetrics)}, false, ""},
		{"throughput 20% down", outcome{line: resultLine(true, with("cells_per_s", 32))}, false, ""},
		{"p90 20% up", outcome{line: resultLine(true, with("cell_ms.p90", 120))}, false, ""},
		{"throughput 30% up", outcome{line: resultLine(true, with("cells_per_s", 52))}, false, ""},
		{"throughput 30% down", outcome{line: resultLine(true, with("cells_per_s", 28))}, false, "w1: cells_per_s"},
		{"p90 30% up", outcome{line: resultLine(true, with("cell_ms.p90", 130))}, false, "w1: cell_ms.p90"},
		{"pass ratio down 0.005", outcome{line: resultLine(true, with("pass_ratio", 0.995))}, false, ""},
		{"pass ratio down 0.02", outcome{line: resultLine(true, with("pass_ratio", 0.98))}, false, "w1: pass_ratio"},
		{"correct false", outcome{line: resultLine(false, baseMetrics), err: errors.New("exit status 1")}, false, `"correct": false`},
		{"exit non-zero", outcome{err: errors.New("exit status 2")}, false, "exit status 2"},
		{"metric missing", outcome{line: resultLine(true, without("cell_ms.p90"))}, false, "no metric cell_ms.p90"},
		{"workload missing", outcome{line: resultLine(true, baseMetrics)}, true, "w2: no base runs"},
	}
	var sp spec
	if err := json.Unmarshal([]byte(testSpec), &sp); err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			runs := make(map[string][2][]outcome)
			for _, w := range []string{"w1", "w2"} {
				if w == "w2" && c.dropW2 {
					continue
				}
				var sides [2][]outcome
				for p := 0; p < pairs; p++ {
					sides[base] = append(sides[base], outcome{line: resultLine(true, baseMetrics)})
					if w == "w1" {
						sides[change] = append(sides[change], c.change)
					} else {
						sides[change] = append(sides[change], outcome{line: resultLine(true, baseMetrics)})
					}
				}
				runs[w] = sides
			}
			table, fails := judge(sp, runs)
			if c.wantFail == "" {
				if len(fails) > 0 {
					t.Fatalf("want pass, got failures %q\n%s", fails, table)
				}
				return
			}
			for _, f := range fails {
				if strings.Contains(f, c.wantFail) {
					return
				}
			}
			t.Fatalf("want a failure containing %q, got %q\n%s", c.wantFail, fails, table)
		})
	}
}

// TestJudgeRefusesEmptySpec keeps the gate from passing by gating
// nothing.
func TestJudgeRefusesEmptySpec(t *testing.T) {
	if _, fails := judge(spec{}, nil); len(fails) == 0 {
		t.Fatal("an empty spec passed")
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2},
		{[]float64{5, 1, 4, 2, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
}
