package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"fdgrid/internal/sweep"
)

// The committed suite golden pins the canonical JSON of every
// experiment matrix at the CI seed count, and the committed
// EXPERIMENTS.md pins the markdown rendered from those reports. CI's
// sharded sweep jobs merge their partial suites and diff against the
// same JSON file, so any behavioural drift — scheduler, oracle, protocol
// or adversary generator — surfaces as a byte diff both locally and in
// CI.
//
// Regenerate both (only when a behaviour change is intended and
// understood):
//
//	go test ./cmd/experiments -run TestSuiteGolden -update-suite-golden
var updateSuiteGolden = flag.Bool("update-suite-golden", false, "rewrite the experiments suite golden and EXPERIMENTS.md")

const (
	goldenSeeds   = 3 // must match the CI invocation's -seeds
	goldenShards  = 3
	experimentsMD = "../../EXPERIMENTS.md"
)

func goldenPath(t *testing.T) string {
	t.Helper()
	return filepath.Join("testdata", "suite.golden.json")
}

// mergedSuite runs the suite once per test binary, through the CI
// pipeline in-process: every shard runs independently at the golden seed
// count, the partial suites travel through files, and mergeSuites joins
// them. TestShardMergeMatchesUnsharded and TestSuiteGolden share the
// merged bytes, so one suite run pins both goldens; make smoke and CI's
// suite golden step cover the unsharded run.
var mergedSuite = sync.OnceValues(func() ([]byte, error) {
	dir, err := os.MkdirTemp("", "experiments-shards-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	paths := make([]string, goldenShards)
	for i := range paths {
		reports, err := runSuite(suite(goldenSeeds), sweep.Options{Shard: sweep.Shard{Index: i, Count: goldenShards}}, false)
		if err != nil {
			return nil, err
		}
		blob, err := sweep.SuiteJSON(reports)
		if err != nil {
			return nil, err
		}
		paths[i] = filepath.Join(dir, fmt.Sprintf("shard-%d.json", i))
		if err := os.WriteFile(paths[i], blob, 0o644); err != nil {
			return nil, err
		}
	}
	return mergeSuites(paths)
})

// TestSuiteGolden checks every matrix of the merged suite passes, pins
// its JSON against the committed golden, and pins the markdown rendered
// from it against EXPERIMENTS.md.
func TestSuiteGolden(t *testing.T) {
	got, err := mergedSuite()
	if err != nil {
		t.Fatal(err)
	}
	var reports []*sweep.Report
	if err := json.Unmarshal(got, &reports); err != nil {
		t.Fatal(err)
	}
	for _, r := range reports {
		if !r.OK() {
			t.Errorf("matrix %s", r.Summary())
		}
	}
	md, err := render(reports)
	if err != nil {
		t.Fatal(err)
	}
	path := goldenPath(t)
	if *updateSuiteGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(experimentsMD, []byte(md), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes) and %s (%d bytes)", path, len(got), experimentsMD, len(md))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing suite golden (run with -update-suite-golden to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("merged shard suites differ from %s (got %d bytes, want %d) — a deliberate change needs -update-suite-golden", path, len(got), len(want))
	}
	wantMD, err := os.ReadFile(experimentsMD)
	if err != nil {
		t.Fatal(err)
	}
	if md != string(wantMD) {
		t.Fatalf("markdown rendered from the merged suite differs from %s (got %d bytes, want %d) — a deliberate change needs -update-suite-golden", experimentsMD, len(md), len(wantMD))
	}
}

// TestShardMergeMatchesUnsharded: the merge of the independently run
// shards must reproduce the committed golden — the unsharded bytes — so
// the suite's one fan-out path provably loses nothing.
func TestShardMergeMatchesUnsharded(t *testing.T) {
	got, err := mergedSuite()
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(goldenPath(t))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("merged shard suites differ from the unsharded golden (got %d bytes, want %d)", len(got), len(want))
	}
}

// TestParseShard pins the -shard flag grammar.
func TestParseShard(t *testing.T) {
	if s, err := parseShard(""); err != nil || s.Count != 0 {
		t.Fatalf("empty spec: %v %v", s, err)
	}
	if s, err := parseShard("2/4"); err != nil || s.Index != 2 || s.Count != 4 {
		t.Fatalf("2/4: %v %v", s, err)
	}
	// Malformed specs must error with usage guidance, never run a
	// silently wrong shard. The trailing-junk rows pin the strictness
	// Sscanf-style prefix parsing would lose ("0/4x" ran shard 0/4).
	for _, bad := range []string{
		"4/4", "-1/4", "1", "a/b", "1/0",
		"0/4x", "x0/4", "1/2/3", "0 /4", "0/ 4", "/4", "0/", "/",
	} {
		_, err := parseShard(bad)
		if err == nil {
			t.Errorf("spec %q accepted", bad)
			continue
		}
		if !strings.Contains(err.Error(), bad) {
			t.Errorf("spec %q: error does not echo the spec: %v", bad, err)
		}
	}
}

func TestParseReplaySpec(t *testing.T) {
	name, idx, err := parseReplaySpec("kset-grid:12")
	if err != nil || name != "kset-grid" || idx != 12 {
		t.Fatalf("kset-grid:12 -> %q %d %v", name, idx, err)
	}
	// Matrix names can contain dashes and dots but no colon, so the
	// LAST colon splits; everything left of it is the name.
	name, idx, err = parseReplaySpec("odd:name:3")
	if err != nil || name != "odd:name" || idx != 3 {
		t.Fatalf("odd:name:3 -> %q %d %v", name, idx, err)
	}
	for _, bad := range []string{
		"", "kset-grid", ":5", "kset-grid:", "kset-grid:abc",
		"kset-grid:1.5", "kset-grid:-1", "kset-grid:5x",
	} {
		if _, _, err := parseReplaySpec(bad); err == nil {
			t.Errorf("spec %q accepted", bad)
		}
	}
}

// TestMergeSuitesRejectsNull: a shard file holding a JSON null where a
// report belongs fails the merge with an error naming the file, rather
// than crashing it.
func TestMergeSuitesRejectsNull(t *testing.T) {
	dir := t.TempDir()
	paths := []string{filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")}
	for _, p := range paths {
		if err := os.WriteFile(p, []byte("[null]"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	_, err := mergeSuites(paths)
	if err == nil {
		t.Fatal("null shard entries merged")
	}
	if !strings.Contains(err.Error(), paths[0]) || !strings.Contains(err.Error(), "null") {
		t.Errorf("null-entry error does not name the file: %v", err)
	}
}

// TestCheckSeeds: a seed count below 1 is a usage error, caught before
// any matrix is built (seedList would panic on a negative length).
func TestCheckSeeds(t *testing.T) {
	for _, ok := range []int{1, 3} {
		if err := checkSeeds(ok); err != nil {
			t.Errorf("-seeds %d rejected: %v", ok, err)
		}
	}
	for _, bad := range []int{0, -1} {
		if err := checkSeeds(bad); err == nil {
			t.Errorf("-seeds %d accepted", bad)
		}
	}
}
