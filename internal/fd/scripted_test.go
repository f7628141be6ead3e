package fd

import (
	"testing"

	"fdgrid/internal/ids"
	"fdgrid/internal/sim"
)

func TestScriptedLeaderTimeline(t *testing.T) {
	cfg := sim.Config{N: 3, T: 1, Seed: 1, MaxSteps: 3_000, GST: 0}
	sys := sim.MustNew(cfg)
	l := NewScriptedLeader(sys, []LeaderStep{
		{At: 1_000, Common: ids.NewSet(2)},
		{At: 0, Common: ids.NewSet(1), PerProc: map[ids.ProcID]ids.Set{3: ids.NewSet(3)}},
	})
	type probe struct {
		at   sim.Time
		p    ids.ProcID
		want ids.Set
	}
	probes := []probe{
		{10, 1, ids.NewSet(1)},
		{10, 3, ids.NewSet(3)}, // per-process override
		{999, 2, ids.NewSet(1)},
		{1_000, 1, ids.NewSet(2)},
		{2_500, 3, ids.NewSet(2)}, // override gone after switch
	}
	sys.OnTick(func(now sim.Time) {
		for _, pr := range probes {
			if pr.at == now {
				if got := l.Trusted(pr.p); !got.Equal(pr.want) {
					t.Errorf("t=%d p=%v: Trusted = %s, want %s", now, pr.p, got, pr.want)
				}
			}
		}
	})
	sys.Run(nil)
}

func TestScriptedSuspectorCrashedSilent(t *testing.T) {
	cfg := sim.Config{N: 3, T: 1, Seed: 2, MaxSteps: 2_000, GST: 0,
		Crashes: map[ids.ProcID]sim.Time{2: 500}}
	sys := sim.MustNew(cfg)
	s := NewScriptedSuspector(sys, []SuspectStep{{At: 0, Common: ids.NewSet(1)}})
	sys.OnTick(func(now sim.Time) {
		switch now {
		case 400:
			if got := s.Suspected(2); !got.Equal(ids.NewSet(1)) {
				t.Errorf("pre-crash Suspected(2) = %s", got)
			}
		case 600:
			if got := s.Suspected(2); !got.IsEmpty() {
				t.Errorf("crashed process suspects %s", got)
			}
			if got := s.Suspected(3); !got.Equal(ids.NewSet(1)) {
				t.Errorf("Suspected(3) = %s", got)
			}
		}
	})
	sys.Run(nil)
}

func TestScriptedEmptyTimelines(t *testing.T) {
	cfg := sim.Config{N: 2, T: 0, Seed: 3, MaxSteps: 100, GST: 0}
	sys := sim.MustNew(cfg)
	l := NewScriptedLeader(sys, nil)
	s := NewScriptedSuspector(sys, nil)
	if !l.Trusted(1).IsEmpty() || !s.Suspected(1).IsEmpty() {
		t.Error("empty scripts must read empty sets")
	}
	sys.Run(nil)
}

// TestSetTraceAccessors exercises the SetTrace inspection helpers the
// checkers build on.
func TestSetTraceAccessors(t *testing.T) {
	cfg := sim.Config{N: 2, T: 0, Seed: 4, MaxSteps: 3_000, GST: 0}
	sys := sim.MustNew(cfg)
	l := NewScriptedLeader(sys, []LeaderStep{
		{At: 0, Common: ids.NewSet(1)},
		{At: 1_000, Common: ids.NewSet(2)},
	})
	tr := WatchLeader(sys, l)
	sys.Run(nil)

	if got := len(tr.Samples(1)); got != 2 {
		t.Fatalf("Samples(1) has %d entries, want 2", got)
	}
	if lc := tr.LastChange(1); lc != 1_000 {
		t.Errorf("LastChange = %d, want 1000", lc)
	}
	final, ok := tr.FinalValue(1)
	if !ok || !final.Equal(ids.NewSet(2)) {
		t.Errorf("FinalValue = %s, %v", final, ok)
	}
	if got := tr.lastTimeContaining(1, 1); got != 1_000 {
		t.Errorf("lastTimeContaining(1,1) = %d, want 1000 (end of its interval)", got)
	}
	if got := tr.lastTimeContaining(1, 2); got != tr.Horizon() {
		t.Errorf("lastTimeContaining(1,2) = %d, want horizon %d", got, tr.Horizon())
	}
	if tr.lastTimeContaining(1, 9) != -1 {
		t.Error("never-contained id reported")
	}
	if !tr.everContained(1, 1) || tr.everContained(1, 9) {
		t.Error("everContained wrong")
	}
	if tr.LastChange(9) != 0 {
		t.Error("unknown process LastChange != 0")
	}
	if _, ok := tr.FinalValue(9); ok {
		t.Error("unknown process has FinalValue")
	}
}

// TestStableForPredicate: fires only after the margin elapses unchanged.
func TestStableForPredicate(t *testing.T) {
	cfg := sim.Config{N: 2, T: 0, Seed: 5, MaxSteps: 5_000, GST: 0}
	sys := sim.MustNew(cfg)
	l := NewScriptedLeader(sys, []LeaderStep{
		{At: 0, Common: ids.NewSet(1)},
		{At: 500, Common: ids.NewSet(2)},
	})
	tr := WatchLeader(sys, l)
	rep := sys.Run(tr.StableFor(ids.NewSet(1, 2), 1_000))
	if !rep.StoppedEarly {
		t.Fatal("StableFor never fired")
	}
	if rep.Steps < 1_500 || rep.Steps > 1_700 {
		t.Errorf("stopped at %d, want ≈ 1500 (change at 500 + margin 1000)", rep.Steps)
	}
}

// TestSetTraceUnknownProcs: StableFor and lastViolation treat an id above
// n as never sampled, as the accessors do, instead of indexing past the
// per-process tables.
func TestSetTraceUnknownProcs(t *testing.T) {
	cfg := sim.Config{N: 2, T: 0, Seed: 5, MaxSteps: 3_000, GST: 0}
	sys := sim.MustNew(cfg)
	l := NewScriptedLeader(sys, []LeaderStep{{At: 0, Common: ids.NewSet(1)}})
	tr := WatchLeader(sys, l)
	rep := sys.Run(tr.StableFor(ids.NewSet(1, 7), 100))
	if rep.StoppedEarly {
		t.Error("StableFor fired although process 7 was never sampled")
	}
	never := func(ids.ProcID, ids.Set) bool { return false }
	if got := tr.lastViolation(ids.NewSet(7), never); got != -1 {
		t.Errorf("lastViolation over an unknown process = %d, want -1", got)
	}
	if got := tr.lastViolation(ids.NewSet(1, 7), never); got != tr.Horizon() {
		t.Errorf("lastViolation = %d, want horizon %d", got, tr.Horizon())
	}
}

// TestSuspectorLag: with a detection lag, a crashed process is suspected
// only after crash + lag.
func TestSuspectorLag(t *testing.T) {
	cfg := sim.Config{N: 3, T: 1, Seed: 6, MaxSteps: 2_000, GST: 0,
		Crashes: map[ids.ProcID]sim.Time{3: 500}}
	sys := sim.MustNew(cfg)
	s := NewEvtS(sys, 3, WithLag(300), WithHostile(false), WithStabilizeAt(0))
	sys.OnTick(func(now sim.Time) {
		got := s.Suspected(1).Contains(3)
		want := now >= 800
		if got != want {
			t.Errorf("t=%d: suspected(3) = %v, want %v", now, got, want)
		}
	})
	sys.Run(nil)
}
