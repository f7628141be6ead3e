package sweep

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"fdgrid/internal/adversary"
)

// TestShardMergeByteIdentical is the sharding contract: running every
// shard of m independently and merging the reports yields canonical
// bytes identical to the unsharded run — for several shard counts,
// including one larger than the cell count (some shards own nothing).
func TestShardMergeByteIdentical(t *testing.T) {
	m := smokeMatrix()
	full, err := Run(m, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, err := full.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, count := range []int{1, 2, 3, 4, 16} {
		parts := make([]*Report, count)
		for i := 0; i < count; i++ {
			parts[i], err = Run(m, Options{Workers: 2, Shard: Shard{Index: i, Count: count}})
			if err != nil {
				t.Fatal(err)
			}
			if parts[i].Shard == nil || parts[i].Shard.Count != count {
				t.Fatalf("shard %d/%d report missing shard metadata", i, count)
			}
		}
		merged, err := MergeReports(parts)
		if err != nil {
			t.Fatalf("merge %d shards: %v", count, err)
		}
		got, err := merged.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("merged %d-shard report differs from the unsharded run", count)
		}
	}
}

// TestShardMergeSurvivesJSONRoundTrip mirrors the CI pipeline: shard
// reports travel between jobs as JSON artifacts, so merging must work
// on unmarshaled reports and still reproduce the unsharded bytes.
func TestShardMergeSurvivesJSONRoundTrip(t *testing.T) {
	m := smokeMatrix()
	full, err := Run(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := full.CanonicalJSON()
	const count = 3
	parts := make([]*Report, count)
	for i := 0; i < count; i++ {
		r, err := Run(m, Options{Shard: Shard{Index: i, Count: count}})
		if err != nil {
			t.Fatal(err)
		}
		blob, err := r.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		parts[i] = new(Report)
		if err := json.Unmarshal(blob, parts[i]); err != nil {
			t.Fatal(err)
		}
	}
	merged, err := MergeReports(parts)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := merged.CanonicalJSON()
	if !bytes.Equal(got, want) {
		t.Fatal("merged round-tripped shards differ from the unsharded run")
	}
}

// TestShardPartition: each cell is owned by exactly one shard, and the
// shard dimension is deterministic.
func TestShardPartition(t *testing.T) {
	m := smokeMatrix()
	cells, err := m.Cells()
	if err != nil {
		t.Fatal(err)
	}
	const count = 3
	owned := make(map[int]int)
	for i := 0; i < count; i++ {
		r, err := Run(m, Options{Shard: Shard{Index: i, Count: count}})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range r.Cells {
			if prev, dup := owned[c.Index]; dup {
				t.Fatalf("cell %d owned by shards %d and %d", c.Index, prev, i)
			}
			owned[c.Index] = i
			if c.Index%count != i {
				t.Fatalf("cell %d landed in shard %d, want %d", c.Index, i, c.Index%count)
			}
		}
	}
	if len(owned) != len(cells) {
		t.Fatalf("shards covered %d of %d cells", len(owned), len(cells))
	}
}

// TestShardErrors: invalid shards and incomplete merges are rejected.
func TestShardErrors(t *testing.T) {
	m := smokeMatrix()
	if _, err := Run(m, Options{Shard: Shard{Index: 4, Count: 4}}); err == nil {
		t.Error("out-of-range shard accepted")
	}
	if _, err := Run(m, Options{Shard: Shard{Index: -1, Count: 2}}); err == nil {
		t.Error("negative shard accepted")
	}
	a, err := Run(m, Options{Shard: Shard{Index: 0, Count: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeReports([]*Report{a}); err == nil {
		t.Error("merge of an incomplete shard family accepted")
	}
	if _, err := MergeReports([]*Report{a, a}); err == nil {
		t.Error("merge with duplicate cells accepted")
	}
	b, err := Run(m, Options{Shard: Shard{Index: 1, Count: 2}})
	if err != nil {
		t.Fatal(err)
	}
	other := smokeMatrix()
	other.Name = "different"
	c, err := Run(other, Options{Shard: Shard{Index: 1, Count: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeReports([]*Report{a, c}); err == nil {
		t.Error("merge across different matrices accepted")
	}
	if _, err := MergeReports(nil); err == nil {
		t.Error("merge of nothing accepted")
	}
	if _, err := MergeReports([]*Report{a, b}); err != nil {
		t.Errorf("complete merge rejected: %v", err)
	}
}

// TestAdversaryFamilyExpansion: a matrix with AdversaryFamilies sweeps
// the generated schedules — per size, appended after explicit patterns,
// deterministically.
func TestAdversaryFamilyExpansion(t *testing.T) {
	m := Matrix{
		Name: "fam", Protocol: "p",
		Seeds: []int64{0}, Sizes: []Size{{N: 6, T: 2}, {N: 10, T: 4}},
		Patterns: []CrashPattern{{Name: "hand-written"}},
		AdversaryFamilies: []adversary.Family{
			{Kind: adversary.KindStaggered, Count: 2, Variants: 2, Seed: 5},
			{Kind: adversary.KindPartition, Seed: 5},
		},
		MaxSteps: 100,
	}
	cells, err := m.Cells()
	if err != nil {
		t.Fatal(err)
	}
	// Per size: 1 explicit + 2 staggered + 1 partition = 4 patterns.
	if len(cells) != 2*4 {
		t.Fatalf("got %d cells, want 8", len(cells))
	}
	if cells[0].Pattern.Name != "hand-written" {
		t.Fatalf("explicit pattern not first: %q", cells[0].Pattern.Name)
	}
	if cells[1].Pattern.Name != "staggered-c2-s5-v0" || cells[2].Pattern.Name != "staggered-c2-s5-v1" {
		t.Fatalf("generated patterns misnamed: %q, %q", cells[1].Pattern.Name, cells[2].Pattern.Name)
	}
	for _, c := range cells[1:3] {
		if len(c.Pattern.Crashes) != 2 {
			t.Fatalf("staggered pattern has %d crashes", len(c.Pattern.Crashes))
		}
		if _, err := c.Config(); err != nil {
			t.Fatalf("generated cell invalid: %v", err)
		}
	}
	if len(cells[3].Pattern.Holds) != 2 || len(cells[3].Pattern.Crashes) != 0 {
		t.Fatalf("partition pattern malformed: %+v", cells[3].Pattern)
	}
	// The n=10 expansion generates against its own size.
	if got := cells[7].Pattern.Holds[0].From.Size() + cells[7].Pattern.Holds[0].To.Size(); got != 10 {
		t.Fatalf("partition at n=10 covers %d processes", got)
	}
	// Determinism: a second expansion is identical.
	again, err := m.Cells()
	if err != nil {
		t.Fatal(err)
	}
	for i := range cells {
		if cells[i].Pattern.Name != again[i].Pattern.Name {
			t.Fatalf("expansion not deterministic at cell %d", i)
		}
	}
}

// TestAdversaryFamilyErrors: a family the size cannot satisfy fails at
// expansion with the matrix and size named.
func TestAdversaryFamilyErrors(t *testing.T) {
	m := Matrix{
		Name: "fam-bad", Protocol: "p",
		Seeds: []int64{0}, Sizes: []Size{{N: 6, T: 1}},
		AdversaryFamilies: []adversary.Family{{Kind: adversary.KindStaggered, Count: 3}},
		MaxSteps:          100,
	}
	if _, err := m.Cells(); err == nil {
		t.Fatal("family with count > t accepted")
	}
}

// TestShardedFamilySweepMerges: sharding composes with generated
// adversaries end to end (families expand identically in every shard).
func TestShardedFamilySweepMerges(t *testing.T) {
	m := Matrix{
		Name: "fam-sweep", Protocol: "kset-omega",
		Seeds: []int64{0, 1}, Sizes: []Size{{N: 5, T: 2}},
		AdversaryFamilies: []adversary.Family{
			{Kind: adversary.KindStaggered, Count: 2, Variants: 2, Seed: 9, Start: 200},
			{Kind: adversary.KindClustered, Count: 2, Seed: 9, Start: 300},
		},
		Combos: []Combo{{Z: 2}},
		GST:    400, MaxSteps: 1_000_000,
	}
	full, err := Run(m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !full.OK() {
		t.Fatalf("family sweep failed: %s", full.Summary())
	}
	want, _ := full.CanonicalJSON()
	var parts []*Report
	for i := 0; i < 3; i++ {
		p, err := Run(m, Options{Shard: Shard{Index: i, Count: 3}})
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, p)
	}
	merged, err := MergeReports(parts)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := merged.CanonicalJSON()
	if !bytes.Equal(got, want) {
		t.Fatal("sharded family sweep does not merge to the unsharded bytes")
	}
}

// TestMergeRejectsOverlap: two parts covering the same cell index fail
// with an error that names the matrix and calls out the overlap.
func TestMergeRejectsOverlap(t *testing.T) {
	m := smokeMatrix()
	a, err := Run(m, Options{Shard: Shard{Index: 0, Count: 2}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(m, Options{Shard: Shard{Index: 1, Count: 2}})
	if err != nil {
		t.Fatal(err)
	}
	// Overlap: part b carries a cell part a already owns.
	b.Cells = append(b.Cells, a.Cells[0])
	_, err = MergeReports([]*Report{a, b})
	if err == nil {
		t.Fatal("overlapping shards merged silently")
	}
	if !strings.Contains(err.Error(), "overlapping") || !strings.Contains(err.Error(), m.Name) {
		t.Errorf("overlap error not descriptive: %v", err)
	}
}

// TestMergeRejectsGap: parts that skip a cell index fail with an error
// that names the missing cell, whether or not shard metadata says how
// many cells to expect.
func TestMergeRejectsGap(t *testing.T) {
	m := smokeMatrix()
	a, err := Run(m, Options{Shard: Shard{Index: 0, Count: 2}})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(m, Options{Shard: Shard{Index: 1, Count: 2}})
	if err != nil {
		t.Fatal(err)
	}
	// Drop one of b's cells: total count (from shard metadata) no longer
	// matches.
	dropped := *b
	dropped.Cells = b.Cells[:len(b.Cells)-1]
	_, err = MergeReports([]*Report{a, &dropped})
	if err == nil {
		t.Fatal("merge with a missing cell accepted")
	}
	if !strings.Contains(err.Error(), m.Name) {
		t.Errorf("missing-cell error does not name the matrix: %v", err)
	}

	// Without shard metadata the count is trusted, so the gap must be
	// caught by the index walk instead: drop an interior cell (index 1).
	a2, b2 := *a, *b
	a2.Shard, b2.Shard = nil, nil
	b2.Cells = b.Cells[1:]
	_, err = MergeReports([]*Report{&a2, &b2})
	if err == nil {
		t.Fatal("gap in coverage merged silently")
	}
	if !strings.Contains(err.Error(), "gap") {
		t.Errorf("gap error not descriptive: %v", err)
	}
}
