package sweep

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"fdgrid/internal/core"
	"fdgrid/internal/ids"
	"fdgrid/internal/sim"
)

// TestMatrixExpansion is the table-driven conformance suite for Cells():
// cell counts, cross-product order, defaulted dimensions, and the
// relative crash-spec / hold encodings.
func TestMatrixExpansion(t *testing.T) {
	base := Matrix{
		Name: "m", Protocol: "p",
		Seeds: []int64{0, 1}, Sizes: []Size{{N: 5, T: 2}},
		MaxSteps: 1000,
	}
	cases := []struct {
		name   string
		mutate func(*Matrix)
		cells  int
		check  func(t *testing.T, cells []Cell)
	}{
		{
			name:   "defaulted pattern and combo dimensions",
			mutate: func(*Matrix) {},
			cells:  2,
			check: func(t *testing.T, cells []Cell) {
				if cells[0].Pattern.Name != "none" {
					t.Errorf("default pattern name %q", cells[0].Pattern.Name)
				}
				if cells[0].Seed != 0 || cells[1].Seed != 1 {
					t.Errorf("seed order: %d, %d", cells[0].Seed, cells[1].Seed)
				}
			},
		},
		{
			name: "full cross product, seeds innermost",
			mutate: func(m *Matrix) {
				m.Sizes = []Size{{N: 4, T: 1}, {N: 6, T: 2}}
				m.Patterns = []CrashPattern{{Name: "a"}, {Name: "b"}, {Name: "c"}}
				m.Combos = []Combo{{X: 1}, {X: 2}}
			},
			cells: 2 * 3 * 2 * 2,
			check: func(t *testing.T, cells []Cell) {
				// sizes × patterns × combos × seeds, seeds innermost.
				if cells[0].Seed != 0 || cells[1].Seed != 1 {
					t.Error("seeds are not the innermost dimension")
				}
				if cells[0].Combo.X != 1 || cells[2].Combo.X != 2 {
					t.Error("combos are not the second-innermost dimension")
				}
				if cells[0].Pattern.Name != "a" || cells[4].Pattern.Name != "b" {
					t.Error("patterns do not vary above combos")
				}
				if cells[0].Size.N != 4 || cells[12].Size.N != 6 {
					t.Error("sizes are not the outermost dimension")
				}
				for i, c := range cells {
					if c.Index != i {
						t.Fatalf("cell %d has index %d", i, c.Index)
					}
				}
			},
		},
		{
			name: "relative crash specs resolve against each size",
			mutate: func(m *Matrix) {
				m.Sizes = []Size{{N: 4, T: 1}, {N: 7, T: 3}}
				m.Seeds = []int64{3}
				m.Patterns = []CrashPattern{{Name: "last-and-secondlast",
					Crashes: []CrashSpec{{Proc: 0, At: 100}}}}
			},
			cells: 2,
			check: func(t *testing.T, cells []Cell) {
				cfg0, err := cells[0].Config()
				if err != nil {
					t.Fatal(err)
				}
				if _, ok := cfg0.Crashes[ids.ProcID(4)]; !ok {
					t.Errorf("n=4: Proc 0 should resolve to p4, got %v", cfg0.Crashes)
				}
				cfg1, _ := cells[1].Config()
				if _, ok := cfg1.Crashes[ids.ProcID(7)]; !ok {
					t.Errorf("n=7: Proc 0 should resolve to p7, got %v", cfg1.Crashes)
				}
			},
		},
		{
			name: "holds pass through to the config",
			mutate: func(m *Matrix) {
				m.Seeds = []int64{0}
				m.Patterns = []CrashPattern{{Name: "held", Holds: []sim.Hold{
					{From: ids.NewSet(1), To: ids.NewSet(2), Until: 400}}}}
			},
			cells: 1,
			check: func(t *testing.T, cells []Cell) {
				cfg, err := cells[0].Config()
				if err != nil {
					t.Fatal(err)
				}
				if len(cfg.Holds) != 1 || cfg.Holds[0].Until != 400 {
					t.Errorf("holds not propagated: %+v", cfg.Holds)
				}
			},
		},
		{
			name: "bandwidth 0 becomes n",
			mutate: func(m *Matrix) {
				m.Seeds = []int64{0}
			},
			cells: 1,
			check: func(t *testing.T, cells []Cell) {
				cfg, _ := cells[0].Config()
				if cfg.Bandwidth != 5 {
					t.Errorf("bandwidth = %d, want n=5", cfg.Bandwidth)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := base
			tc.mutate(&m)
			cells, err := m.Cells()
			if err != nil {
				t.Fatal(err)
			}
			if len(cells) != tc.cells {
				t.Fatalf("got %d cells, want %d", len(cells), tc.cells)
			}
			tc.check(t, cells)
		})
	}
}

// TestMatrixExpansionErrors: invalid matrices are rejected at expansion,
// not at run time in a worker.
func TestMatrixExpansionErrors(t *testing.T) {
	valid := Matrix{Name: "m", Protocol: "p", Seeds: []int64{0},
		Sizes: []Size{{N: 3, T: 1}}, MaxSteps: 100}
	cases := []struct {
		name   string
		mutate func(*Matrix)
		want   string
	}{
		{"no protocol", func(m *Matrix) { m.Protocol = "" }, "no protocol"},
		{"no seeds", func(m *Matrix) { m.Seeds = nil }, "no seeds"},
		{"no sizes", func(m *Matrix) { m.Sizes = nil }, "no sizes"},
		{"no budget", func(m *Matrix) { m.MaxSteps = 0 }, "MaxSteps"},
		{"crash outside size", func(m *Matrix) {
			m.Patterns = []CrashPattern{{Name: "bad", Crashes: []CrashSpec{{Proc: 9, At: 1}}}}
		}, "outside"},
		{"relative crash underflows", func(m *Matrix) {
			m.Patterns = []CrashPattern{{Name: "bad", Crashes: []CrashSpec{{Proc: -5, At: 1}}}}
		}, "outside"},
		{"duplicate crash", func(m *Matrix) {
			m.Sizes = []Size{{N: 5, T: 2}}
			m.Patterns = []CrashPattern{{Name: "dup",
				Crashes: []CrashSpec{{Proc: 5, At: 1}, {Proc: 0, At: 2}}}}
		}, "twice"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := valid
			tc.mutate(&m)
			if _, err := m.Cells(); err == nil {
				t.Fatal("expansion accepted an invalid matrix")
			} else if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestComboString: labels used for grouping are stable and distinct.
func TestComboString(t *testing.T) {
	cases := []struct {
		combo Combo
		want  string
	}{
		{Combo{Name: "abd", X: 2}, "abd"},
		{Combo{Family: core.FamOmega, Param: 2}, "Omega_2"},
		{Combo{X: 1, Y: 2, Z: 3}, "x=1,y=2,z=3"},
	}
	for _, tc := range cases {
		if got := tc.combo.String(); got != tc.want {
			t.Errorf("Combo%+v.String() = %q, want %q", tc.combo, got, tc.want)
		}
	}
}

// TestRunUnknownProtocol: a matrix naming an unregistered protocol fails
// fast with the available names.
func TestRunUnknownProtocol(t *testing.T) {
	m := Matrix{Name: "m", Protocol: "no-such-protocol",
		Seeds: []int64{0}, Sizes: []Size{{N: 3, T: 1}}, MaxSteps: 100}
	if _, err := Run(m, Options{}); err == nil {
		t.Fatal("Run accepted an unknown protocol")
	}
}

// TestMatrixJSONRoundTrip: a Matrix decoded from its JSON form — the
// form -merge and suitebench read back out of suite reports — carries
// the same bytes and expands to the same cells.
func TestMatrixJSONRoundTrip(t *testing.T) {
	m := Matrix{
		Name: "rt", Protocol: "kset-omega",
		Seeds: []int64{0, 1}, Sizes: []Size{{N: 5, T: 2}},
		Patterns: []CrashPattern{{Name: "late", Crashes: []CrashSpec{{Proc: 0, At: 450}}}},
		Combos:   []Combo{{Z: 2}},
		GST:      400, MaxSteps: 500_000,
	}
	blob, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	var back Matrix
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatal(err)
	}
	again, err := json.Marshal(back)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, blob) {
		t.Fatalf("matrix JSON changed on round trip:\n%s\n%s", blob, again)
	}
	cells, err := back.Cells()
	if err != nil {
		t.Fatal(err)
	}
	want, err := m.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != len(want) {
		t.Fatalf("round-tripped matrix expands to %d cells, want %d", len(cells), len(want))
	}
}
