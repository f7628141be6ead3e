package fd

import (
	"fdgrid/internal/sim"
)

// ChangeHinted is an optional oracle extension: NextChange returns the
// earliest future tick at which the oracle's outputs may differ from
// their value at now (sim.Never if they are settled). Ground-truth
// oracles change at epoch boundaries (anarchy drawings), at their
// stabilization time and at crash times (plus detection lag); emulated
// oracles change only when their host processes take steps, so they
// return sim.Never — a consumer woken by the triggering message re-reads
// them anyway.
//
// Hints feed the scheduler's wake conditions. A layer polling an oracle
// (sim.Env.StepUntil) sleeps until the oracle can change instead of
// waking every tick. WakeOnChanges schedules the ticks a hint names, so
// WatchLeader and WatchSuspector sample a hinted output only there and
// let the clock skip the rest. A missing hint means "may change next
// tick" (NextChangeOf).
type ChangeHinted interface {
	NextChange(now sim.Time) sim.Time
}

// NextChangeOf returns o's change hint, or now+1 when o does not provide
// one (the conservative per-tick wake).
func NextChangeOf(o any, now sim.Time) sim.Time {
	if h, ok := o.(ChangeHinted); ok {
		return h.NextChange(now)
	}
	return now + 1
}

// WakeOnChanges schedules a tick at every future time o's output can
// change (NextChangeOf: every tick when o gives no hint), so an OnAdvance
// sampler registered before it observes each change on the tick it
// happens. Hints at or past MaxSteps (sim.Never when settled) can never
// fire and are left out of the scheduler's list.
func WakeOnChanges(sys *sim.System, o any) {
	end := sys.Config().MaxSteps
	sys.OnAdvance(func(now sim.Time) {
		if next := NextChangeOf(o, now); next < end {
			sys.WakeAt(next)
		}
	})
}

// nextEpoch returns the first epoch boundary after now.
func nextEpoch(now, epoch sim.Time) sim.Time {
	if now < 0 {
		return 0
	}
	return (now/epoch + 1) * epoch
}

// nextCrashEvent returns the earliest tick after now at which a crash
// (shifted by lag) changes pattern-derived outputs: the first crash tick
// after now, or the first lag-shifted one — two O(log) window lookups on
// the pattern's precomputed crash times instead of a process scan.
func nextCrashEvent(pat *sim.Pattern, now, lag sim.Time) sim.Time {
	next := pat.NextCrashAfter(now)
	if ct := pat.NextCrashAfter(now - lag); ct != sim.Never && ct+lag > now && ct+lag < next {
		next = ct + lag
	}
	return next
}

// NextChange implements ChangeHinted: a suspector's output can change at
// anarchy epoch boundaries (before stabilization, or forever when
// hostile), at the stabilization time, and when a crash (or its detection
// after the configured lag) occurs.
func (s *Suspect) NextChange(now sim.Time) sim.Time {
	stab := s.opt.stab(s.sys)
	next := nextCrashEvent(s.sys.Pattern(), now, s.opt.lag)
	if now < stab {
		// Outputs flip at stab when accuracy kicks in there (eventual
		// class) or when a non-hostile oracle's anarchy dies there —
		// i.e. always, except for a hostile perpetual oracle, whose
		// pre- and post-stab behaviour is identical.
		if (!s.perpetual || !s.opt.hostile) && stab < next {
			next = stab
		}
		if b := nextEpoch(now, s.opt.epoch); b < next {
			next = b
		}
	} else if s.opt.hostile {
		if b := nextEpoch(now, s.opt.epoch); b < next {
			next = b
		}
	}
	return next
}

// NextChange implements ChangeHinted: query answers can change at anarchy
// epoch boundaries before a ◇φ's stabilization, at the stabilization time
// itself, and when a crash completes a queried region (after lag).
func (f *Phi) NextChange(now sim.Time) sim.Time {
	stab := f.opt.stab(f.sys)
	next := nextCrashEvent(f.sys.Pattern(), now, f.opt.lag)
	if !f.perpetual && now < stab {
		if stab < next {
			next = stab
		}
		if b := nextEpoch(now, f.opt.epoch); b < next {
			next = b
		}
	}
	return next
}

// NextChange implements ChangeHinted: trusted sets can change at anarchy
// epoch boundaries before stabilization, at the stabilization time, and
// at crash times (a crashed reader's output becomes empty).
func (w *Omega) NextChange(now sim.Time) sim.Time {
	stab := w.opt.stab(w.sys)
	next := nextCrashEvent(w.sys.Pattern(), now, 0)
	if now < stab {
		if stab < next {
			next = stab
		}
		if b := nextEpoch(now, w.opt.epoch); b < next {
			next = b
		}
	}
	return next
}

// NextChange implements ChangeHinted for scripted leaders: the next
// scripted step boundary.
func (s *ScriptedLeader) NextChange(now sim.Time) sim.Time {
	if i := leaderStepAt(s.steps, now) + 1; i < len(s.steps) {
		return s.steps[i].At
	}
	return sim.Never
}

// NextChange implements ChangeHinted for scripted suspectors: the next
// scripted step boundary, or the next crash (a crashed reader's output
// becomes empty regardless of the script).
func (s *ScriptedSuspector) NextChange(now sim.Time) sim.Time {
	next := nextCrashEvent(s.sys.Pattern(), now, 0)
	if i := suspectStepAt(s.steps, now) + 1; i < len(s.steps) && s.steps[i].At < next {
		next = s.steps[i].At
	}
	return next
}
