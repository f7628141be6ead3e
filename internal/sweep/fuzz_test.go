package sweep

import (
	"encoding/json"
	"os"
	"testing"

	"fdgrid/internal/sim"
)

// The fuzz targets below feed untrusted CLI input — -perturb specs and
// -merge shard files — to the sweep package. Each must return an error
// or a valid result, never panic. Run as plain tests they replay the
// seed corpus; `go test -run XXX -fuzz '^FuzzMergeReports$'
// ./internal/sweep` explores further.

// goldenReports decodes the committed suite golden.
func goldenReports(f *testing.F) []*Report {
	f.Helper()
	blob, err := os.ReadFile("../../cmd/experiments/testdata/suite.golden.json")
	if err != nil {
		f.Fatal(err)
	}
	var reports []*Report
	if err := json.Unmarshal(blob, &reports); err != nil {
		f.Fatal(err)
	}
	return reports
}

// FuzzParsePerturbation: an accepted -perturb spec echoes itself and
// applies to the first cell of every golden matrix without panicking;
// the edited cell then yields a simulator Config, or an error, and sim
// accepts or rejects that Config cleanly.
func FuzzParsePerturbation(f *testing.F) {
	reports := goldenReports(f)
	var cells []Cell
	for _, r := range reports {
		cs, err := r.Matrix.Cells()
		if err != nil {
			f.Fatal(err)
		}
		cells = append(cells, cs[0])
	}
	for _, seed := range []string{
		// README and CI perturbations.
		"stab+2000", "gst+500", "crash=2@600", "hold[0]+400",
		"gst-1", "stab-5", "crash=0@0", "crash=-1@10", "crash=300@1", "hold[0]-1", "hold[9]+1",
		"gst+0", "gst+9223372036854775807", "crash=2@-1", "hold[-1]+3", "hold[0]+x", "", "gst",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParsePerturbation(spec)
		if err != nil {
			return
		}
		if p == nil || p.String() != spec {
			t.Fatalf("spec %q accepted as %v", spec, p)
		}
		for _, c := range cells {
			cloneCellDims(&c)
			if err := p.apply(&c); err != nil {
				continue
			}
			cfg, err := c.Config()
			if err != nil {
				continue
			}
			_, _ = sim.New(cfg) // accepted or rejected; only a panic fails
		}
	})
}

// FuzzMergeReports: a JSON array of reports either fails to decode,
// fails to merge, or merges into one report whose cells are exactly the
// parts' cells with gap-free indices 0..n-1 and whose tallies count
// every cell once.
func FuzzMergeReports(f *testing.F) {
	reports := goldenReports(f)
	byName := make(map[string]*Report, len(reports))
	for _, r := range reports {
		byName[r.Matrix.Name] = r
	}
	add := func(parts ...*Report) {
		blob, err := json.Marshal(parts)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	// shards splits r's cells into a complete i/m family, as -shard
	// runs write them.
	shards := func(r *Report, m int) []*Report {
		parts := make([]*Report, m)
		for i := range parts {
			parts[i] = &Report{Matrix: r.Matrix, Shard: &ShardMeta{Index: i, Count: m, TotalCells: len(r.Cells)}}
		}
		for _, c := range r.Cells {
			parts[c.Index%m].Cells = append(parts[c.Index%m].Cells, c)
		}
		return parts
	}
	add(byName["T8-O1"])
	add(shards(byName["F5-lower-wheel"], 2)...)
	add(shards(byName["F3a-oracle-efficiency"], 3)...)
	overlap := shards(byName["F6-upper-wheel"], 2)
	overlap[1].Cells = append(overlap[1].Cells, overlap[0].Cells[0])
	add(overlap...)
	add(shards(byName["T8-O1"], 2)[0], byName["T9-tau500"])
	f.Add([]byte(`[]`))
	f.Add([]byte(`[null]`))
	f.Add([]byte(`[{"cells":[{"index":1}]}]`))
	f.Add([]byte(`[{"shard":{"index":0,"count":2,"total_cells":-1},"cells":[]}]`))
	f.Fuzz(func(t *testing.T, blob []byte) {
		var parts []*Report
		if err := json.Unmarshal(blob, &parts); err != nil {
			return
		}
		merged, err := MergeReports(parts)
		if err != nil {
			return
		}
		total := 0
		for _, p := range parts {
			total += len(p.Cells)
		}
		if merged == nil || len(merged.Cells) != total {
			t.Fatalf("merge of %d cells accepted as %v", total, merged)
		}
		for i, c := range merged.Cells {
			if c.Index != i {
				t.Fatalf("merged cell %d has index %d", i, c.Index)
			}
		}
		if merged.Shard != nil {
			t.Fatalf("merged report keeps shard metadata %+v", merged.Shard)
		}
		if n := merged.Passed + merged.Failed + merged.Errored + merged.ConfigErrors; n != total {
			t.Fatalf("merged tallies count %d of %d cells", n, total)
		}
		if _, err := merged.CanonicalJSON(); err != nil {
			t.Fatalf("merged report does not render: %v", err)
		}
	})
}
