package main

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"fdgrid/internal/agreement"
	"fdgrid/internal/fd"
	"fdgrid/internal/ids"
	"fdgrid/internal/reduction"
	"fdgrid/internal/sim"
	"fdgrid/internal/sweep"
)

// The mirror rebuilds cells of one matrix from the program's public
// calls — Cell.Config, sim.New, the oracle constructors, the protocol's
// spawn, System.Run and the checker — exactly as the registered sweep
// runner does, so the traced run can time sim.New, System.Run and the
// checker per cell and wrap the oracles in counting, timing probes. Only
// the ground-truth-oracle paths of kset-omega, psi-omega and two-wheels
// are mirrored; those are the dominant cells of the three workloads.

// layerTime counts the calls into one layer and the wall time inside
// them. The simulator serializes every oracle read under its run token,
// so probes need no locking.
type layerTime struct {
	calls, ns int64
}

// probes wraps a cell's oracles. fd counts reads of the ground-truth
// oracles, red the reads of an emulated oracle (a reduction's output),
// and fdInRed the fd reads made from inside a reduction read, so that a
// reduction's self time excludes them.
type probes struct {
	fd, red, fdInRed layerTime
	inRed            bool
}

func (pr *probes) timeFD(start time.Time) {
	ns := int64(time.Since(start))
	pr.fd.calls++
	pr.fd.ns += ns
	if pr.inRed {
		pr.fdInRed.calls++
		pr.fdInRed.ns += ns
	}
}

type leaderProbe struct {
	inner fd.Leader
	pr    *probes
}

func (l *leaderProbe) Trusted(p ids.ProcID) ids.Set {
	start := time.Now()
	s := l.inner.Trusted(p)
	l.pr.timeFD(start)
	return s
}

type emulatedProbe struct {
	inner fd.Leader
	pr    *probes
}

func (l *emulatedProbe) Trusted(p ids.ProcID) ids.Set {
	start := time.Now()
	l.pr.inRed = true
	s := l.inner.Trusted(p)
	l.pr.inRed = false
	l.pr.red.calls++
	l.pr.red.ns += int64(time.Since(start))
	return s
}

type suspectorProbe struct {
	inner fd.Suspector
	pr    *probes
}

func (s *suspectorProbe) Suspected(p ids.ProcID) ids.Set {
	start := time.Now()
	out := s.inner.Suspected(p)
	s.pr.timeFD(start)
	return out
}

type querierProbe struct {
	inner fd.Querier
	pr    *probes
}

func (q *querierProbe) Query(p ids.ProcID, x ids.Set) bool {
	start := time.Now()
	out := q.inner.Query(p, x)
	q.pr.timeFD(start)
	return out
}

// A probe must forward fd.ChangeHinted exactly when the oracle it wraps
// implements it: consumers fall back to waking every tick without the
// hint (fd.NextChangeOf), and the mirror would run a different program.
type (
	hintedLeader struct {
		fd.Leader
		fd.ChangeHinted
	}
	hintedSuspector struct {
		fd.Suspector
		fd.ChangeHinted
	}
	hintedQuerier struct {
		fd.Querier
		fd.ChangeHinted
	}
)

// leader wraps a ground-truth leader oracle (nil probes: unwrapped).
func (pr *probes) leader(l fd.Leader) fd.Leader {
	if pr == nil {
		return l
	}
	return withLeaderHint(&leaderProbe{inner: l, pr: pr}, l)
}

// emulated wraps a reduction's emulated leader oracle.
func (pr *probes) emulated(l fd.Leader) fd.Leader {
	if pr == nil {
		return l
	}
	return withLeaderHint(&emulatedProbe{inner: l, pr: pr}, l)
}

func withLeaderHint(probe fd.Leader, inner fd.Leader) fd.Leader {
	if h, ok := inner.(fd.ChangeHinted); ok {
		return hintedLeader{probe, h}
	}
	return probe
}

func (pr *probes) suspector(s fd.Suspector) fd.Suspector {
	if pr == nil {
		return s
	}
	probe := &suspectorProbe{inner: s, pr: pr}
	if h, ok := s.(fd.ChangeHinted); ok {
		return hintedSuspector{probe, h}
	}
	return probe
}

func (pr *probes) querier(q fd.Querier) fd.Querier {
	if pr == nil {
		return q
	}
	probe := &querierProbe{inner: q, pr: pr}
	if h, ok := q.(fd.ChangeHinted); ok {
		return hintedQuerier{probe, h}
	}
	return probe
}

// prepared is a mirrored cell ready to run: its stop predicate, the
// verdict check to apply after System.Run and, for agreement cells, the
// outcome.
type prepared struct {
	stop  func() bool
	check func(sim.Report) error
	out   *agreement.Outcome
}

// prepare builds the cell's oracles (wrapped by pr when non-nil) and
// spawns its processes on sys, as the sweep runner of its protocol does.
func prepare(c *sweep.Cell, sys *sim.System, pr *probes) (prepared, error) {
	if !c.Oracle.None() {
		return prepared{}, fmt.Errorf("mirror covers default-oracle cells only; cell %d has oracle %s", c.Index, c.Oracle.Name)
	}
	switch c.Protocol {
	case "kset-omega":
		return prepareKSet(c, sys, pr), nil
	case "psi-omega":
		return preparePsi(c, sys, pr), nil
	case "two-wheels":
		return prepareTwoWheels(c, sys, pr), nil
	}
	return prepared{}, fmt.Errorf("no mirror for protocol %q", c.Protocol)
}

func procSet(ps []int) ids.Set {
	var s ids.Set
	for _, p := range ps {
		s = s.Add(ids.ProcID(p))
	}
	return s
}

// prepareKSet mirrors the kset-omega runner: Fig. 3 over a ground-truth Ω_z.
func prepareKSet(c *sweep.Cell, sys *sim.System, pr *probes) prepared {
	z := c.Combo.Z
	if z == 0 {
		z = 1
	}
	var opts []fd.Option
	if c.Param("stab0", 0) != 0 {
		opts = append(opts, fd.WithStabilizeAt(0))
	}
	if len(c.Combo.Trusted) > 0 {
		opts = append(opts, fd.WithTrusted(procSet(c.Combo.Trusted)))
	}
	oracle := pr.leader(fd.NewOmega(sys, z, opts...))
	fd.TraceLeader(sys, oracle, "oracle")
	out := agreement.NewOutcome()
	for p := 1; p <= c.Size.N; p++ {
		v := agreement.Value(int(c.Param("value_base", 100)) + p)
		sys.Spawn(ids.ProcID(p), agreement.KSetMain(oracle, v, out))
	}
	return prepared{
		stop: out.AllDecided(sys.Pattern().Correct()),
		out:  out,
		check: func(rep sim.Report) error {
			if !rep.StoppedEarly {
				return errors.New("timed out before all correct processes decided")
			}
			if err := out.Check(sys.Pattern(), int(c.Param("k", int64(z)))); err != nil {
				return err
			}
			if c.Param("require_round1", 0) != 0 && out.MaxRound() > 1 {
				return fmt.Errorf("decision in round %d, want 1", out.MaxRound())
			}
			return nil
		},
	}
}

// preparePsi mirrors the psi-omega runner: Fig. 8's Ψ_y → Ω_z chain over
// a ground-truth φ_y, sampled densely, with no process spawned.
func preparePsi(c *sweep.Cell, sys *sim.System, pr *probes) prepared {
	y, z := c.Combo.Y, c.Combo.Z
	q := pr.querier(fd.WrapPsi(fd.NewPhi(sys, y)))
	po := pr.emulated(reduction.NewPsiOmega(c.Size.N, c.Size.T, y, z, q))
	fd.TraceLeader(sys, po, "emu")
	trace := fd.WatchLeader(sys, po)
	return prepared{check: func(rep sim.Report) error {
		if err := trace.CheckOmega(sys.Pattern(), z, sim.Time(c.Param("margin", 1_000))); err != nil {
			return err
		}
		if rep.Messages.TotalSent != 0 {
			return fmt.Errorf("sent %d messages, want 0", rep.Messages.TotalSent)
		}
		return nil
	}}
}

// prepareTwoWheels mirrors the two-wheels runner: ◇S_x + ◇φ_y → Ω_z
// (Figs. 5–6) over ground-truth oracles, trace-checked.
func prepareTwoWheels(c *sweep.Cell, sys *sim.System, pr *probes) prepared {
	x, y := c.Combo.X, c.Combo.Y
	z := c.Combo.Z
	if z == 0 {
		z = c.Size.T + 2 - x - y
	}
	susp := pr.suspector(fd.NewEvtS(sys, x))
	quer := pr.querier(fd.NewEvtPhi(sys, y))
	fd.TraceSuspector(sys, susp, "oracle-s")
	emu, _ := reduction.SpawnTwoWheels(sys, susp, quer, x, y)
	leader := pr.emulated(emu)
	fd.TraceLeader(sys, leader, "emu")
	trace := fd.WatchLeaderSparse(sys, leader)
	if h, ok := quer.(fd.ChangeHinted); ok {
		sys.OnAdvance(func(now sim.Time) {
			if t := h.NextChange(now); t < sim.Never {
				sys.WakeAt(t)
			}
		})
	}
	mark := sim.Time(c.Param("mark", 0))
	inquiry := sim.Intern("wheel.inquiry")
	var atMark int64 = -1
	if mark > 0 {
		sys.WakeAt(mark)
		sys.OnAdvance(func(now sim.Time) {
			if atMark < 0 && now >= mark {
				atMark = sys.Metrics().Sent(inquiry)
			}
		})
	}
	var stop func() bool
	if sf := sim.Time(c.Param("stable_for", 0)); sf > 0 {
		stop = trace.StableFor(sys.Pattern().Correct(), sf)
	}
	return prepared{stop: stop, check: func(rep sim.Report) error {
		margin := sim.Time(c.Param("margin", 10_000))
		if err := trace.CheckOmega(sys.Pattern(), z, margin); err != nil {
			return err
		}
		if z > 1 && c.Param("expect_tight", 0) != 0 && trace.CheckOmega(sys.Pattern(), z-1, margin) == nil {
			return fmt.Errorf("output rested on fewer than z=%d processes", z)
		}
		if mark > 0 && c.Param("require_nonquiescent", 0) != 0 {
			end := rep.Messages.Sent["wheel.inquiry"]
			if atMark <= 0 || end <= atMark {
				return errors.New("inquiry traffic stopped")
			}
		}
		return nil
	}}
}

// cellRun is what one mirrored run of a cell observed.
type cellRun struct {
	verdict                  string
	steps                    sim.Time
	sent, delivered, dropped int64
	ticks                    int64 // OnAdvance callbacks: scheduled ticks
	decisions                int64
	maxRound                 int

	newNS, runNS, checkNS int64
	sched                 rtDelta
}

// mirrorCell runs one cell, its oracles wrapped by pr when non-nil.
func mirrorCell(c *sweep.Cell, pr *probes) (cellRun, error) {
	var r cellRun
	cfg, err := c.Config()
	if err != nil {
		return r, err
	}
	start := time.Now()
	sys, err := sim.New(cfg)
	r.newNS = int64(time.Since(start))
	if err != nil {
		return r, err
	}
	sys.OnAdvance(func(sim.Time) { r.ticks++ })
	prep, err := prepare(c, sys, pr)
	if err != nil {
		return r, err
	}
	before := readRT()
	start = time.Now()
	rep := sys.Run(prep.stop)
	r.runNS = int64(time.Since(start))
	r.sched = before.to(readRT())

	start = time.Now()
	r.verdict = sweep.Pass
	if err := prep.check(rep); err != nil {
		r.verdict = sweep.Fail
	}
	r.checkNS = int64(time.Since(start))

	r.steps = rep.Steps
	r.sent = rep.Messages.TotalSent
	for _, n := range rep.Messages.Delivered {
		r.delivered += n
	}
	for _, n := range rep.Messages.Dropped {
		r.dropped += n
	}
	if prep.out != nil {
		r.decisions = int64(len(prep.out.Decisions()))
		r.maxRound = prep.out.MaxRound()
	}
	return r, nil
}

// add accumulates o's counts and times into r; maxRound keeps the
// larger round.
func (r *cellRun) add(o cellRun) {
	r.steps += o.steps
	r.sent += o.sent
	r.delivered += o.delivered
	r.dropped += o.dropped
	r.ticks += o.ticks
	r.decisions += o.decisions
	r.maxRound = max(r.maxRound, o.maxRound)
	r.newNS += o.newNS
	r.runNS += o.runNS
	r.checkNS += o.checkNS
	r.sched.add(o.sched)
}

func (l *layerTime) add(o layerTime) {
	l.calls += o.calls
	l.ns += o.ns
}

// mirrorStats sums the probed mirror runs of a matrix.
type mirrorStats struct {
	cells            int
	total            cellRun
	fd, red, fdInRed layerTime
}

// runMirror mirrors every cell of m and checks each against the sweep's
// result for it: steps, messages and verdict must match, and the probed
// run must take exactly the scheduled ticks of an unprobed reference run
// (probes that changed the wake schedule would measure another program).
func runMirror(m sweep.Matrix, results []sweep.CellResult, tr *tracer) (*mirrorStats, error) {
	cells, err := m.Cells()
	if err != nil {
		return nil, err
	}
	if len(cells) != len(results) {
		return nil, fmt.Errorf("mirror %s: %d cells, sweep reported %d", m.Name, len(cells), len(results))
	}
	mSpan := tr.open("mirror:"+m.Name, rootSpan, "")
	st := &mirrorStats{}
	for i := range cells {
		c := &cells[i]
		ref, err := mirrorCell(c, nil)
		if err != nil {
			return nil, err
		}
		id := "mirror/" + m.Name + "/" + strconv.Itoa(c.Index)
		cSpan := tr.open("cell", mSpan, id)
		pr := &probes{}
		got, err := mirrorCell(c, pr)
		if err != nil {
			return nil, err
		}
		tr.close(cSpan)
		tr.mirrorSpans(cSpan, id, got, pr)

		want := results[i]
		if got.steps != want.Steps || got.sent != want.Messages || got.verdict != want.Verdict || got.ticks != ref.ticks {
			return nil, fmt.Errorf("mirror %s cell %d diverges from the sweep: steps %d/%d, messages %d/%d, verdict %s/%s, ticks %d vs unprobed %d",
				m.Name, c.Index, got.steps, want.Steps, got.sent, want.Messages, got.verdict, want.Verdict, got.ticks, ref.ticks)
		}
		st.cells++
		st.total.add(got)
		st.fd.add(pr.fd)
		st.red.add(pr.red)
		st.fdInRed.add(pr.fdInRed)
	}
	tr.close(mSpan)
	return st, nil
}

// mirrorSpans records the children of a mirrored cell's span: sim.New,
// System.Run with the aggregated oracle and reduction reads inside it,
// and the checker. The three phases ran back to back from the cell
// span's start.
func (tr *tracer) mirrorSpans(parent int, cell string, r cellRun, pr *probes) {
	start := tr.spans[parent-1].Start
	tr.add(span{Parent: parent, Name: "sim.New", Cell: cell, Start: start, End: start + r.newNS})
	runStart := start + r.newNS
	run := tr.add(span{Parent: parent, Name: "System.Run", Cell: cell, Start: runStart, End: runStart + r.runNS})
	if pr.fd.calls > 0 {
		tr.add(span{Parent: run, Name: "fd.oracle", Cell: cell, Start: runStart, End: runStart + pr.fd.ns - pr.fdInRed.ns, Count: pr.fd.calls - pr.fdInRed.calls})
	}
	if pr.red.calls > 0 {
		red := tr.add(span{Parent: run, Name: "reduction.trusted", Cell: cell, Start: runStart, End: runStart + pr.red.ns, Count: pr.red.calls})
		if pr.fdInRed.calls > 0 {
			tr.add(span{Parent: red, Name: "fd.oracle", Cell: cell, Start: runStart, End: runStart + pr.fdInRed.ns, Count: pr.fdInRed.calls})
		}
	}
	checkStart := runStart + r.runNS
	tr.add(span{Parent: parent, Name: "check", Cell: cell, Start: checkStart, End: checkStart + r.checkNS})
}
