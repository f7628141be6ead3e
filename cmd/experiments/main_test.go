package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fdgrid/internal/sweep"
)

// The committed suite golden pins the canonical JSON of every
// experiment matrix at the CI seed count. CI's sharded sweep jobs merge
// their partial suites and diff against the same file, so any
// behavioural drift — scheduler, oracle, protocol or adversary
// generator — surfaces as a byte diff both locally and in CI.
//
// Regenerate (only when a behaviour change is intended and understood):
//
//	go test ./cmd/experiments -run TestSuiteGolden -update-suite-golden
var updateSuiteGolden = flag.Bool("update-suite-golden", false, "rewrite the experiments suite golden")

const goldenSeeds = 3 // must match the CI invocation's -seeds

func goldenPath(t *testing.T) string {
	t.Helper()
	return filepath.Join("testdata", "suite.golden.json")
}

func buildSuiteJSON(t *testing.T, seeds int, opts sweep.Options) ([]byte, []*sweep.Report) {
	t.Helper()
	_, reports, err := buildSuite(seeds, opts, "no-such-bench-record.json", false)
	if err != nil {
		t.Fatal(err)
	}
	suite, err := sweep.SuiteJSON(reports)
	if err != nil {
		t.Fatal(err)
	}
	return suite, reports
}

func TestSuiteGolden(t *testing.T) {
	got, reports := buildSuiteJSON(t, goldenSeeds, sweep.Options{})
	for _, r := range reports {
		if !r.OK() {
			t.Errorf("matrix %s", r.Summary())
		}
	}
	path := goldenPath(t)
	if *updateSuiteGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing suite golden (run with -update-suite-golden to create): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("suite differs from %s (got %d bytes, want %d) — a deliberate change needs -update-suite-golden", path, len(got), len(want))
	}
}

// TestShardMergeMatchesUnsharded drives the CI pipeline in-process:
// every shard runs independently at the golden seed count, the partial
// suites travel through files, and the merge must reproduce the
// committed golden — the unsharded bytes TestSuiteGolden pins — so the
// suite's one fan-out path provably loses nothing.
func TestShardMergeMatchesUnsharded(t *testing.T) {
	want, err := os.ReadFile(goldenPath(t))
	if err != nil {
		t.Fatal(err)
	}
	const count = 3
	dir := t.TempDir()
	paths := make([]string, count)
	for i := 0; i < count; i++ {
		suite, _ := buildSuiteJSON(t, goldenSeeds, sweep.Options{Shard: sweep.Shard{Index: i, Count: count}})
		paths[i] = filepath.Join(dir, "shard-"+string(rune('0'+i))+".json")
		if err := os.WriteFile(paths[i], suite, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := mergeSuites(paths)
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
