package sweep

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"fdgrid/internal/fd"
	"fdgrid/internal/ids"
	"fdgrid/internal/reduction"
	"fdgrid/internal/sim"
)

// The differential test of the change-driven Watch* samplers: every case
// runs one configuration twice — once watched by fd.WatchLeader /
// fd.WatchSuspector, once by tickTrace, a reference sampler that reads
// the output of every alive process on every tick — and requires the
// same change points per process, the same horizon and the same run
// report (stop tick, StoppedEarly, message counts).

// tickTrace is the every-tick reference: an OnTick sampler (so the clock
// is dense) recording each alive process's change points.
type tickTrace struct {
	byProc  [][]fd.SetSample
	horizon sim.Time
}

func watchEveryTick(sys *sim.System, read func(ids.ProcID) ids.Set) *tickTrace {
	n := sys.Config().N
	tt := &tickTrace{byProc: make([][]fd.SetSample, n+1)}
	sys.OnTick(func(now sim.Time) {
		for p := 1; p <= n; p++ {
			id := ids.ProcID(p)
			if sys.Pattern().Crashed(id, now) {
				continue
			}
			v := read(id)
			if ss := tt.byProc[p]; len(ss) == 0 || !ss[len(ss)-1].Value.Equal(v) {
				tt.byProc[p] = append(ss, fd.SetSample{At: now, Value: v})
			}
		}
		tt.horizon = now
	})
	return tt
}

// stableFor is the reference twin of SetTrace.StableFor.
func (tt *tickTrace) stableFor(procs ids.Set, margin sim.Time) func() bool {
	return func() bool {
		stable := true
		procs.ForEach(func(p ids.ProcID) bool {
			ss := tt.byProc[p]
			stable = len(ss) > 0 && tt.horizon-ss[len(ss)-1].At >= margin
			return stable
		})
		return stable
	}
}

// watchCase is one configuration: build constructs the watched output
// (an fd.Leader or fd.Suspector), and any processes, on a fresh system.
// stableFor > 0 stops the run once the correct processes' outputs have
// rested that long.
type watchCase struct {
	name      string
	cfg       sim.Config
	build     func(sys *sim.System) any
	stableFor sim.Time
}

func reader(out any) func(ids.ProcID) ids.Set {
	switch o := out.(type) {
	case fd.Leader:
		return o.Trusted
	case fd.Suspector:
		return o.Suspected
	}
	panic(fmt.Sprintf("watched output %T is neither a Leader nor a Suspector", out))
}

// runWatched runs c under the Watch* sampler; scheduled counts the ticks
// the run actually scheduled.
func runWatched(c watchCase) (tr *fd.SetTrace, rep sim.Report, scheduled int) {
	sys := sim.MustNew(c.cfg)
	switch o := c.build(sys).(type) {
	case fd.Leader:
		tr = fd.WatchLeader(sys, o)
	case fd.Suspector:
		tr = fd.WatchSuspector(sys, o)
	}
	sys.OnAdvance(func(sim.Time) { scheduled++ })
	var stop func() bool
	if c.stableFor > 0 {
		stop = tr.StableFor(sys.Pattern().Correct(), c.stableFor)
	}
	return tr, sys.Run(stop), scheduled
}

func runEveryTick(c watchCase) (*tickTrace, sim.Report) {
	sys := sim.MustNew(c.cfg)
	tt := watchEveryTick(sys, reader(c.build(sys)))
	var stop func() bool
	if c.stableFor > 0 {
		stop = tt.stableFor(sys.Pattern().Correct(), c.stableFor)
	}
	return tt, sys.Run(stop)
}

// checkWatchCase runs both twins of c and reports every difference. It
// returns the number of ticks the watched run scheduled.
func checkWatchCase(t *testing.T, c watchCase) int {
	t.Helper()
	tr, rep, scheduled := runWatched(c)
	ref, refRep := runEveryTick(c)
	if !reflect.DeepEqual(rep, refRep) {
		t.Errorf("%s: report %+v, every-tick report %+v", c.name, rep, refRep)
	}
	if tr.Horizon() != ref.horizon {
		t.Errorf("%s: horizon %d, every-tick horizon %d", c.name, tr.Horizon(), ref.horizon)
	}
	for p := 1; p <= c.cfg.N; p++ {
		got, want := tr.Samples(ids.ProcID(p)), ref.byProc[p]
		if !sameSamples(got, want) {
			t.Errorf("%s: p%d samples %v, every-tick samples %v", c.name, p, got, want)
		}
	}
	return scheduled
}

func sameSamples(a, b []fd.SetSample) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].At != b[i].At || !a[i].Value.Equal(b[i].Value) {
			return false
		}
	}
	return true
}

// goldenMatrix returns a matrix as declared in the committed suite
// golden, which is cut at the suite's golden seed count.
func goldenMatrix(t *testing.T, name string) Matrix {
	t.Helper()
	blob, err := os.ReadFile("../../cmd/experiments/testdata/suite.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var reports []Report
	if err := json.Unmarshal(blob, &reports); err != nil {
		t.Fatal(err)
	}
	for _, r := range reports {
		if r.Matrix.Name == name {
			return r.Matrix
		}
	}
	t.Fatalf("suite golden has no matrix %s", name)
	return Matrix{}
}

// goldenPsiCells expands the suite's psi-omega matrices into their cells.
func goldenPsiCells(t *testing.T) []Cell {
	t.Helper()
	var cells []Cell
	for _, name := range []string{"F8-psi-omega", "SCALE-psi", "ORACLE-psi-burst"} {
		m := goldenMatrix(t, name)
		cs, err := m.Cells()
		if err != nil {
			t.Fatal(err)
		}
		cells = append(cells, cs...)
	}
	return cells
}

// TestWatchChangeDrivenSuiteCells: every psi-omega cell of the suite, run
// to MaxSteps as the runner does, and once more stopped early by
// StableFor.
func TestWatchChangeDrivenSuiteCells(t *testing.T) {
	for _, c := range goldenPsiCells(t) {
		name := fmt.Sprintf("%s:%d", c.Matrix, c.Index)
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg, err := c.Config()
			if err != nil {
				t.Fatal(err)
			}
			build := func(sys *sim.System) any {
				po, ok := psiOmegaChain(&c, sys, &CellResult{})
				if !ok {
					t.Fatalf("%s: psi-omega chain rejected its cell", name)
				}
				return po
			}
			scheduled := checkWatchCase(t, watchCase{name: name, cfg: cfg, build: build})
			if scheduled*10 > int(cfg.MaxSteps) {
				t.Errorf("%s: change-driven run scheduled %d of %d ticks", name, scheduled, cfg.MaxSteps)
			}
			checkWatchCase(t, watchCase{name: name + "/stable", cfg: cfg, build: build, stableFor: 1_000})
		})
	}
}

// regionView exposes a querier's answers about a fixed list of regions
// as a set-valued output — member i+1 iff query(regions[i]) is true —
// forwarding the querier's change hint.
type regionView struct {
	q       *fd.Phi
	regions []ids.Set
}

func (v regionView) Trusted(p ids.ProcID) ids.Set {
	var out ids.Set
	for i, x := range v.regions {
		if v.q.Query(p, x) {
			out = out.Add(ids.ProcID(i + 1))
		}
	}
	return out
}

func (v regionView) NextChange(now sim.Time) sim.Time { return v.q.NextChange(now) }

// hiddenHint hides the wrapped leader's change hint.
type hiddenHint struct{ fd.Leader }

// randomWatchCase draws case i of the seeded sweep: a random system and
// one of the oracle kinds under random options.
func randomWatchCase(r *rand.Rand, i int) watchCase {
	n := 3 + r.Intn(8)
	t := 1 + r.Intn(n-1)
	maxSteps := sim.Time(1_500 + r.Intn(2_500))
	crashes := map[ids.ProcID]sim.Time{}
	for _, p := range r.Perm(n)[:r.Intn(t+1)] {
		crashes[ids.ProcID(p+1)] = sim.Time(r.Intn(int(maxSteps)))
	}
	cfg := sim.Config{N: n, T: t, Seed: int64(i), MaxSteps: maxSteps,
		GST: sim.Time(r.Intn(int(maxSteps) / 2)), Crashes: crashes}
	opts := []fd.Option{
		fd.WithEpoch(sim.Time(1 + r.Intn(40))),
		fd.WithAnarchyRate(r.Float64()),
		fd.WithHostile(r.Intn(2) == 0),
		fd.WithLag(sim.Time(r.Intn(300))),
	}
	if r.Intn(2) == 0 {
		opts = append(opts, fd.WithStabilizeAt(sim.Time(r.Intn(int(maxSteps)))))
	}
	perpetual := r.Intn(2) == 0
	phi := func(sys *sim.System, y int) *fd.Phi {
		if perpetual {
			return fd.NewPhi(sys, y, opts...)
		}
		return fd.NewEvtPhi(sys, y, opts...)
	}
	susp := func(sys *sim.System, x int) *fd.Suspect {
		if perpetual {
			return fd.NewS(sys, x, opts...)
		}
		return fd.NewEvtS(sys, x, opts...)
	}
	randSet := func() ids.Set {
		var s ids.Set
		for _, p := range r.Perm(n)[:r.Intn(n+1)] {
			s = s.Add(ids.ProcID(p + 1))
		}
		return s
	}
	var stableFor sim.Time
	if r.Intn(3) == 0 {
		stableFor = sim.Time(100 + r.Intn(800))
	}
	c := watchCase{cfg: cfg, stableFor: stableFor}
	switch kind := i % 9; kind {
	case 0:
		y := r.Intn(t + 1)
		z := t + 1 - y + r.Intn(n-t)
		c.name = fmt.Sprintf("psi-omega y=%d z=%d", y, z)
		c.build = func(sys *sim.System) any {
			return reduction.NewPsiOmega(n, t, y, z, fd.WrapPsi(phi(sys, y)))
		}
	case 1:
		y := r.Intn(t + 1)
		regions := make([]ids.Set, 1+r.Intn(8))
		for j := range regions {
			regions[j] = randSet()
		}
		c.name = fmt.Sprintf("phi y=%d regions=%v", y, regions)
		c.build = func(sys *sim.System) any { return regionView{q: phi(sys, y), regions: regions} }
	case 2:
		z := 1 + r.Intn(n)
		c.name = fmt.Sprintf("omega z=%d", z)
		c.build = func(sys *sim.System) any { return fd.NewOmega(sys, z, opts...) }
	case 3:
		x := 1 + r.Intn(n)
		c.name = fmt.Sprintf("suspect x=%d", x)
		c.build = func(sys *sim.System) any { return susp(sys, x) }
	case 4, 5:
		var leader []fd.LeaderStep
		var suspect []fd.SuspectStep
		for j := 0; j < 1+r.Intn(6); j++ {
			at := sim.Time(r.Intn(int(maxSteps)))
			if j == 0 {
				at = 0
			}
			per := map[ids.ProcID]ids.Set{ids.ProcID(1 + r.Intn(n)): randSet()}
			leader = append(leader, fd.LeaderStep{At: at, Common: randSet(), PerProc: per})
			suspect = append(suspect, fd.SuspectStep{At: at, Common: randSet(), PerProc: per})
		}
		if kind == 4 {
			c.name = "scripted leader"
			c.build = func(sys *sim.System) any { return fd.NewScriptedLeader(sys, leader) }
		} else {
			c.name = "scripted suspector"
			c.build = func(sys *sim.System) any { return fd.NewScriptedSuspector(sys, suspect) }
		}
	case 6:
		// An output without a change hint wakes the clock every tick.
		z := 1 + r.Intn(n)
		c.name = fmt.Sprintf("hidden-hint omega z=%d", z)
		c.build = func(sys *sim.System) any { return hiddenHint{fd.NewOmega(sys, z, opts...)} }
	case 7:
		// Emulated outputs hint sim.Never: they change only when a
		// process steps, and processes step only at scheduled ticks.
		c.cfg.MaxSteps = 600 + maxSteps/4
		c.cfg.Bandwidth = n
		x, y := 1+r.Intn(n), r.Intn(t+1)
		c.name = fmt.Sprintf("add-s x=%d y=%d", x, y)
		c.build = func(sys *sim.System) any {
			return reduction.SpawnAddS(sys, susp(sys, x), phi(sys, y), "memory")
		}
	case 8:
		c.cfg.MaxSteps = 600 + maxSteps/4
		c.cfg.Bandwidth = n
		x := 1 + r.Intn(t)
		y := t + 1 - x
		c.name = fmt.Sprintf("two-wheels x=%d y=%d", x, y)
		c.build = func(sys *sim.System) any {
			emu, _ := reduction.SpawnTwoWheels(sys, susp(sys, x), phi(sys, y), x, y)
			return emu
		}
	}
	c.name = fmt.Sprintf("case %d (%s, n=%d t=%d crashes=%v gst=%d stable_for=%d)",
		i, c.name, n, t, crashes, cfg.GST, stableFor)
	return c
}

// TestWatchChangeDrivenSweep: a seeded sweep over the ground-truth
// oracles (φ_y/◇φ_y with lag, epoch, anarchy rate and stabilization; Ω_z;
// hostile S_x/◇S_x), scripted timelines, emulated outputs and a leader
// whose hint is hidden, some runs stopped early by StableFor.
func TestWatchChangeDrivenSweep(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	for i := 0; i < 90; i++ {
		checkWatchCase(t, randomWatchCase(r, i))
	}
}

// TestWatchHiddenHintSamplesEveryTick: an output without a change hint
// wakes the sampler on every tick, so its run schedules all of them.
func TestWatchHiddenHintSamplesEveryTick(t *testing.T) {
	cfg := sim.Config{N: 4, T: 1, Seed: 3, MaxSteps: 2_000, GST: 300,
		Crashes: map[ids.ProcID]sim.Time{2: 700}}
	build := func(sys *sim.System) any { return hiddenHint{fd.NewOmega(sys, 2)} }
	if got := checkWatchCase(t, watchCase{name: "hidden hint", cfg: cfg, build: build}); got != int(cfg.MaxSteps) {
		t.Errorf("hidden-hint run scheduled %d ticks, want every one of %d", got, cfg.MaxSteps)
	}
	build = func(sys *sim.System) any { return fd.NewOmega(sys, 2) }
	if got := checkWatchCase(t, watchCase{name: "hinted", cfg: cfg, build: build}); got >= int(cfg.MaxSteps)/2 {
		t.Errorf("hinted run scheduled %d of %d ticks, want the clock to skip", got, cfg.MaxSteps)
	}
}
