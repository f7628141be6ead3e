package main

import (
	"encoding/json"
	"fmt"
	"os"

	"fdgrid/internal/sweep"
)

// suiteGolden is the committed suite report, relative to the repository
// root. The workloads read their matrices from it, and at seed 0 every
// matrix's report must reproduce its entry byte for byte.
const suiteGolden = "cmd/experiments/testdata/suite.golden.json"

// workload is one slice of the suite. The three workloads split the
// suite's matrices exactly once (checkCoverage), each chosen to load a
// different layer; mirror names the matrix whose dominant cells the
// traced run rebuilds from public calls.
type workload struct {
	name     string
	mirror   string
	matrices []string
}

var workloads = []workload{
	// The message path: Fig. 3 k-set at n = 32…256 with bandwidth n.
	{name: "scale-kset", mirror: "SCALE-kset", matrices: []string{
		"SCALE-kset", "ORACLE-kset-flap",
	}},
	// Oracle chains only: no process is spawned, no message is sent.
	{name: "oracle-psi", mirror: "SCALE-psi", matrices: []string{
		"SCALE-psi", "ORACLE-psi-burst", "F8-psi-omega",
	}},
	// Tiny cells with long virtual time: per-tick handoff and per-cell
	// set-up dominate, delivery volume is small.
	{name: "paper-figs", mirror: "F2-additivity", matrices: []string{
		"F1-grid", "F2-additivity", "F2-additivity-pairs", "F3-scaling",
		"F3a-oracle-efficiency", "F3b-zero-degradation", "F5-lower-wheel",
		"F6-upper-wheel", "F9-add-s", "F9-add-s-eventual", "F9-add-s-pairs",
		"T5-tightness", "T8-necessity", "T8-O1", "T9-tau500", "T9-tau2000",
		"T9-tau5000", "baseline-fig3", "baseline-rotating-coordinator",
		"ZD-repeated", "ABL-single-wheel", "ABL-two-wheels-y0",
		"ORACLE-wheels-churn",
	}},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// goldenEntry is one matrix of the suite golden with its report bytes
// exactly as committed.
type goldenEntry struct {
	matrix sweep.Matrix
	raw    json.RawMessage
}

// loadGolden reads and decodes the suite golden.
func loadGolden(path string) ([]goldenEntry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var raws []json.RawMessage
	if err := json.Unmarshal(data, &raws); err != nil {
		return nil, fmt.Errorf("decode %s: %w", path, err)
	}
	out := make([]goldenEntry, len(raws))
	for i, raw := range raws {
		var head struct {
			Matrix sweep.Matrix `json:"matrix"`
		}
		if err := json.Unmarshal(raw, &head); err != nil {
			return nil, fmt.Errorf("decode %s entry %d: %w", path, i, err)
		}
		out[i] = goldenEntry{matrix: head.Matrix, raw: raw}
	}
	return out, nil
}

// checkCoverage fails unless every golden matrix belongs to exactly one
// workload and every matrix a workload names is in the golden, so a
// suite matrix added later cannot escape measurement.
func checkCoverage(entries []goldenEntry) error {
	owner := make(map[string]string)
	for _, w := range workloads {
		for _, name := range w.matrices {
			if prev, dup := owner[name]; dup {
				return fmt.Errorf("matrix %q is in workloads %q and %q", name, prev, w.name)
			}
			owner[name] = w.name
		}
	}
	inGolden := make(map[string]bool, len(entries))
	for _, e := range entries {
		name := e.matrix.Name
		if inGolden[name] {
			return fmt.Errorf("suite golden holds matrix %q twice", name)
		}
		inGolden[name] = true
		if _, ok := owner[name]; !ok {
			return fmt.Errorf("suite matrix %q belongs to no workload", name)
		}
	}
	for _, w := range workloads {
		for _, name := range w.matrices {
			if !inGolden[name] {
				return fmt.Errorf("workload %q names matrix %q, which the suite golden lacks", w.name, name)
			}
		}
		if !contains(w.matrices, w.mirror) {
			return fmt.Errorf("workload %q mirrors matrix %q outside the workload", w.name, w.mirror)
		}
	}
	return nil
}

func contains(names []string, name string) bool {
	for _, n := range names {
		if n == name {
			return true
		}
	}
	return false
}

// selectWorkload returns the workload's matrices in suite order, each
// seed shifted by seed (seed 0 leaves the suite's cells unchanged),
// together with their golden report bytes.
func selectWorkload(entries []goldenEntry, w workload, seed int64) ([]sweep.Matrix, []json.RawMessage) {
	var ms []sweep.Matrix
	var raws []json.RawMessage
	for _, e := range entries {
		if !contains(w.matrices, e.matrix.Name) {
			continue
		}
		m := e.matrix
		m.Seeds = make([]int64, len(e.matrix.Seeds))
		for i, s := range e.matrix.Seeds {
			m.Seeds[i] = s + seed
		}
		ms = append(ms, m)
		raws = append(raws, e.raw)
	}
	return ms, raws
}
