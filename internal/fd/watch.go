package fd

import (
	"fdgrid/internal/ids"
	"fdgrid/internal/sim"
)

// SetSample is one change point of a process's set-valued oracle output:
// the output equals Value from At until the next sample's At.
type SetSample struct {
	At    sim.Time
	Value ids.Set
}

// SetTrace records the set-valued outputs (suspected_i or trusted_i) of
// an oracle over a run, change-compressed per process. Build one with
// WatchLeader or WatchSuspector before System.Run; inspect it afterwards
// with the Check* methods in check.go.
type SetTrace struct {
	sys     *sim.System
	n       int
	byProc  [][]SetSample // index 1..n
	last    []ids.Set
	started []bool
	horizon sim.Time
	// dense marks a trace that has observed every tick before the
	// clock's current one, sampled or not (see watchSets).
	dense bool
}

func newSetTrace(sys *sim.System) *SetTrace {
	n := sys.Config().N
	return &SetTrace{
		sys:     sys,
		n:       n,
		byProc:  make([][]SetSample, n+1),
		last:    make([]ids.Set, n+1),
		started: make([]bool, n+1),
	}
}

// watchSets installs a sampler for a per-process set-valued output out,
// read through read. A dense sampler records the exact timeline: it is
// change-driven, sampling every scheduled tick and scheduling one at
// each tick where out can next change (WakeOnChanges), so the clock
// skips only ticks at which the output provably cannot change. An
// output without a hint wakes it every tick. A sparse sampler observes
// every scheduled tick and nothing more, which suffices for emulated
// outputs because those change only when a process takes a step.
func watchSets(sys *sim.System, dense bool, out any, read func(ids.ProcID) ids.Set) *SetTrace {
	tr := newSetTrace(sys)
	sys.OnAdvance(func(now sim.Time) {
		// One crashed-set lookup per tick, then a masked sweep over the
		// alive processes — membership and ascending order are exactly
		// those of a 1..n loop with a per-process Crashed check.
		alive := ids.FullSet(tr.n).Minus(sys.Pattern().CrashedSet(now))
		alive.ForEachIn(tr.n, func(id ids.ProcID) bool {
			tr.observe(id, now, read(id))
			return true
		})
		tr.tick(now)
	})
	if dense {
		tr.dense = true
		WakeOnChanges(sys, out)
	}
	return tr
}

// WatchLeader records l.Trusted(p) for every alive process at every tick
// at which it can change, so time-driven oracle churn is captured
// exactly. The ticks come from l's change hint (NextChangeOf), and the
// run still skips the rest.
func WatchLeader(sys *sim.System, l Leader) *SetTrace {
	return watchSets(sys, true, l, l.Trusted)
}

// WatchSuspector is WatchLeader for s.Suspected(p).
func WatchSuspector(sys *sim.System, s Suspector) *SetTrace {
	return watchSets(sys, true, s, s.Suspected)
}

// WatchLeaderSparse samples l.Trusted(p) at every scheduled tick only,
// ignoring any change hint, and its horizon is the last scheduled tick.
// Use it for emulated outputs, whose value changes only when a process
// takes a step; for ground-truth oracles, whose anarchy churns with the
// clock itself, WatchLeader records the exact timeline.
func WatchLeaderSparse(sys *sim.System, l Leader) *SetTrace {
	return watchSets(sys, false, l, l.Trusted)
}

// WatchSuspectorSparse is WatchLeaderSparse for suspectors.
func WatchSuspectorSparse(sys *sim.System, s Suspector) *SetTrace {
	return watchSets(sys, false, s, s.Suspected)
}

func (tr *SetTrace) observe(p ids.ProcID, now sim.Time, v ids.Set) {
	if tr.started[p] && tr.last[p].Equal(v) {
		return
	}
	tr.started[p] = true
	tr.last[p] = v
	tr.byProc[p] = append(tr.byProc[p], SetSample{At: now, Value: v})
}

func (tr *SetTrace) tick(now sim.Time) {
	tr.horizon = now
}

// StableFor returns a stop predicate for System.Run: it fires once every
// process of procs has been sampled at least once and no sampled output
// has changed during the last margin ticks. Pick margin larger than the
// run's GST and last crash time so the observed stability covers a
// genuinely post-stabilization window. An id of procs outside 1..n
// counts as never sampled, so the predicate never fires.
func (tr *SetTrace) StableFor(procs ids.Set, margin sim.Time) func() bool {
	return func() bool {
		stable := true
		var lastChange sim.Time = -1
		horizon := tr.Horizon()
		procs.ForEach(func(p ids.ProcID) bool {
			if !tr.inRange(p) || !tr.started[p] {
				stable = false
				if tr.dense {
					// p's first sample, if any, lands at this tick or
					// later; no sampled change will wake the predicate.
					lastChange = tr.sys.Now()
				}
				return false
			}
			ss := tr.byProc[p]
			if len(ss) > 0 {
				at := ss[len(ss)-1].At
				if at > lastChange {
					lastChange = at
				}
				if horizon-at < margin {
					stable = false
				}
			}
			return true
		})
		if !stable && lastChange >= 0 {
			// Tell the scheduler when this predicate can next flip, so
			// clock jumps land on (not past) the earliest stopping tick.
			// A dense horizon trails the clock by one tick.
			wake := lastChange + margin
			if tr.dense {
				wake++
			}
			tr.sys.WakeAt(wake)
		}
		return stable
	}
}

// Horizon returns the last observed tick: the last sampled one, or for a
// dense trace the tick before the clock's current one — the sampler
// skipped only ticks at which the output could not change. After
// System.Run that is the stop tick minus one, or MaxSteps-1.
func (tr *SetTrace) Horizon() sim.Time {
	if tr.dense {
		return tr.sys.Now() - 1
	}
	return tr.horizon
}

// inRange reports whether p is a process of the watched system (the
// accessors tolerate unknown ids, reporting "never sampled").
func (tr *SetTrace) inRange(p ids.ProcID) bool {
	return p >= 1 && int(p) <= tr.n
}

// Samples returns the recorded change points of process p.
func (tr *SetTrace) Samples(p ids.ProcID) []SetSample {
	if !tr.inRange(p) {
		return nil
	}
	return append([]SetSample(nil), tr.byProc[p]...)
}

// FinalValue returns the last recorded output of p and whether p was ever
// sampled.
func (tr *SetTrace) FinalValue(p ids.ProcID) (ids.Set, bool) {
	if !tr.inRange(p) {
		return ids.EmptySet(), false
	}
	return tr.last[p], tr.started[p]
}

// LastChange returns the time of p's last output change (0 if never
// sampled).
func (tr *SetTrace) LastChange(p ids.ProcID) sim.Time {
	if !tr.inRange(p) {
		return 0
	}
	ss := tr.byProc[p]
	if len(ss) == 0 {
		return 0
	}
	return ss[len(ss)-1].At
}

// lastTimeContaining returns the last tick at which p's output contained
// q, or -1 if it never did. If the final output contains q it returns the
// horizon.
func (tr *SetTrace) lastTimeContaining(p, q ids.ProcID) sim.Time {
	if !tr.inRange(p) {
		return -1
	}
	ss := tr.byProc[p]
	last := sim.Time(-1)
	for i, s := range ss {
		if !s.Value.Contains(q) {
			continue
		}
		if i+1 < len(ss) {
			last = ss[i+1].At
		} else {
			last = tr.Horizon()
		}
	}
	return last
}

// everContained reports whether p's output ever contained q.
func (tr *SetTrace) everContained(p, q ids.ProcID) bool {
	return tr.lastTimeContaining(p, q) >= 0
}

// stableSuffixStart returns the earliest time τ such that for every
// process in procs, all samples at or after τ satisfy pred... kept
// simple: it returns the latest "last violation end" over procs for the
// given per-sample predicate.
func (tr *SetTrace) lastViolation(procs ids.Set, ok func(p ids.ProcID, v ids.Set) bool) sim.Time {
	worst := sim.Time(-1)
	horizon := tr.Horizon()
	procs.ForEach(func(p ids.ProcID) bool {
		if !tr.inRange(p) {
			return true // never sampled: nothing violated
		}
		ss := tr.byProc[p]
		for i, s := range ss {
			if ok(p, s.Value) {
				continue
			}
			end := horizon
			if i+1 < len(ss) {
				end = ss[i+1].At
			}
			if end > worst {
				worst = end
			}
		}
		return true
	})
	return worst
}
