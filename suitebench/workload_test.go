package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"
)

func golden(t *testing.T) []goldenEntry {
	t.Helper()
	entries, err := loadGolden("../" + suiteGolden)
	if err != nil {
		t.Fatal(err)
	}
	return entries
}

// TestWorkloadsCoverSuite pins that the workloads split the suite's
// matrices exactly once: a suite matrix added without a workload fails
// here instead of escaping measurement.
func TestWorkloadsCoverSuite(t *testing.T) {
	entries := golden(t)
	if err := checkCoverage(entries); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, w := range workloads {
		ms, _ := selectWorkload(entries, w, 0)
		if len(ms) != len(w.matrices) {
			t.Errorf("workload %s selects %d matrices, names %d", w.name, len(ms), len(w.matrices))
		}
		total += len(ms)
	}
	if total != len(entries) {
		t.Errorf("workloads select %d matrices, suite has %d", total, len(entries))
	}

	extra := append(entries[:len(entries):len(entries)], goldenEntry{})
	extra[len(extra)-1].matrix.Name = "NEW-matrix"
	if err := checkCoverage(extra); err == nil {
		t.Error("a suite matrix outside every workload passed the coverage check")
	}
	if err := checkCoverage(entries[1:]); err == nil {
		t.Error("a workload matrix missing from the suite passed the coverage check")
	}
}

// TestSeedShift pins that seed 0 leaves the suite's seeds alone and any
// other seed shifts every seed without touching the golden's matrices.
func TestSeedShift(t *testing.T) {
	entries := golden(t)
	w, _ := findWorkload("scale-kset")
	base, _ := selectWorkload(entries, w, 0)
	shifted, _ := selectWorkload(entries, w, 7)
	for i := range base {
		for j, s := range base[i].Seeds {
			if shifted[i].Seeds[j] != s+7 {
				t.Fatalf("%s seed %d: shifted to %d, want %d", base[i].Name, s, shifted[i].Seeds[j], s+7)
			}
		}
	}
	again, _ := selectWorkload(entries, w, 0)
	for i := range base {
		for j, s := range base[i].Seeds {
			if again[i].Seeds[j] != s {
				t.Fatalf("%s: shifting a selection changed the golden's seeds", base[i].Name)
			}
		}
	}
}

// TestGoldenRendering pins the assumption behind the seed-0 gate:
// re-marshalling the golden's raw entries reproduces the golden bytes,
// as sweep.SuiteJSON renders reports.
func TestGoldenRendering(t *testing.T) {
	data, err := os.ReadFile("../" + suiteGolden)
	if err != nil {
		t.Fatal(err)
	}
	var raws []json.RawMessage
	if err := json.Unmarshal(data, &raws); err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(raws, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, bytes.TrimRight(data, "\n")) {
		t.Fatal("re-rendered golden differs from the committed bytes")
	}
}

// TestPercentile checks the Harrell–Davis estimator against values it
// must reproduce: the median of a symmetric sample, and a constant.
func TestPercentile(t *testing.T) {
	if got := percentile([]float64{5, 1, 3, 2, 4}, 0.5); math.Abs(got-3) > 1e-9 {
		t.Errorf("median of 1..5 = %g, want 3", got)
	}
	if got := percentile([]float64{7, 7, 7, 7}, 0.9); math.Abs(got-7) > 1e-9 {
		t.Errorf("p90 of constants = %g, want 7", got)
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	if got := percentile(xs, 0.9); math.Abs(got-899.1) > 1 {
		t.Errorf("p90 of 0..999 = %g, want about 899", got)
	}
}
