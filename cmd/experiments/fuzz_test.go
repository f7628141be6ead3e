package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The fuzz targets below feed the CLI's spec parsers arbitrary strings.
// Each must return an error or a valid result, never panic. Run as
// plain tests they replay the seed corpus; `go test -run XXX -fuzz
// '^FuzzParseShard$' ./cmd/experiments` explores further.

// goldenReplaySpecs lists the first and last cell of every matrix in
// the committed suite golden as replay specs, for seeding the corpora.
func goldenReplaySpecs(f *testing.F) []string {
	f.Helper()
	blob, err := os.ReadFile(filepath.Join("testdata", "suite.golden.json"))
	if err != nil {
		f.Fatal(err)
	}
	var reports []struct {
		Matrix struct {
			Name string `json:"name"`
		} `json:"matrix"`
		Cells []json.RawMessage `json:"cells"`
	}
	if err := json.Unmarshal(blob, &reports); err != nil {
		f.Fatal(err)
	}
	var specs []string
	for _, r := range reports {
		specs = append(specs, r.Matrix.Name+":0", fmt.Sprintf("%s:%d", r.Matrix.Name, len(r.Cells)-1))
	}
	return specs
}

// FuzzParseShard: an accepted -shard spec is the empty spec (no shard)
// or i/m with 0 <= i < m, and re-parses from its canonical form to the
// same shard; a rejected one echoes the spec in its error.
func FuzzParseShard(f *testing.F) {
	for _, seed := range []string{
		"", "0/1", "2/4", "3/4", "0/3", "2/3", // README and CI shard families
		"4/4", "-1/4", "1/0", "0/4x", "1/2/3", "0 /4", "+1/4", "01/04",
		"9223372036854775807/9223372036854775807",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := parseShard(spec)
		if err != nil {
			if !strings.Contains(err.Error(), strconv.Quote(spec)) {
				t.Fatalf("spec %q: error does not echo the spec: %v", spec, err)
			}
			return
		}
		if spec == "" {
			if s.Index != 0 || s.Count != 0 {
				t.Fatalf("empty spec parsed to shard %+v, want none", s)
			}
			return
		}
		if s.Count < 1 || s.Index < 0 || s.Index >= s.Count {
			t.Fatalf("spec %q accepted as out-of-range shard %d/%d", spec, s.Index, s.Count)
		}
		again, err := parseShard(fmt.Sprintf("%d/%d", s.Index, s.Count))
		if err != nil || again != s {
			t.Fatalf("spec %q parsed to %+v, whose canonical form re-parses to %+v, %v", spec, s, again, err)
		}
	})
}

// FuzzParseReplaySpec: an accepted -replay spec splits at its last
// colon into a non-empty matrix name and a non-negative index that the
// rest of the spec spells.
func FuzzParseReplaySpec(f *testing.F) {
	for _, seed := range []string{
		// README and CI replay specs.
		"ORACLE-kset-flap:4", "F3-scaling:0", "F2-additivity:3", "SCALE-kset:10",
		"F1-grid:7", "ORACLE-psi-burst:3",
		"odd:name:3", "", ":5", "kset-grid:", "kset-grid:-1", "kset-grid:+2", "x:99999999999999999999",
	} {
		f.Add(seed)
	}
	for _, seed := range goldenReplaySpecs(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		name, index, err := parseReplaySpec(spec)
		if err != nil {
			return
		}
		if name == "" || index < 0 {
			t.Fatalf("spec %q accepted as matrix %q index %d", spec, name, index)
		}
		rest, ok := strings.CutPrefix(spec, name+":")
		if !ok || strings.Contains(rest, ":") {
			t.Fatalf("spec %q accepted as matrix %q, not split at its last colon", spec, name)
		}
		if n, err := strconv.Atoi(rest); err != nil || n != index {
			t.Fatalf("spec %q accepted with index %d, but its tail %q reads %d, %v", spec, index, rest, n, err)
		}
	})
}
