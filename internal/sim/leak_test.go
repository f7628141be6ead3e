package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"fdgrid/internal/ids"
)

// runGoroutineDelta runs s to completion (recovering a panic re-raised
// by Run) and returns the panic value, the change in
// runtime.NumGoroutine across the call and the number of coroutines
// still alive after it: every process coroutine must be finished or
// stopped by the time Run returns or panics. The count alone can also
// drop while Run runs — an earlier test's goroutine exiting late — so
// the live-coroutine scan is the exact check.
func runGoroutineDelta(s *System, stop func() bool) (panicked any, delta, live int) {
	before := runtime.NumGoroutine()
	func() {
		defer func() { panicked = recover() }()
		s.Run(stop)
	}()
	delta = runtime.NumGoroutine() - before
	buf := make([]byte, 1<<20)
	for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
		if strings.Contains(g, "iter.Pull[") {
			live++
		}
	}
	return panicked, delta, live
}

// stepForever is a main that wakes on every tick.
func stepForever(e *Env) {
	for {
		e.Step()
	}
}

// parkForever is a main that only ever wakes on messages.
func parkForever(e *Env) {
	for {
		e.StepUntil(Never)
	}
}

// TestRunLeavesNoCoroutines covers every way a run ends — MaxSteps, the
// stop predicate, an in-run crash, a protocol panic, a sampler panic on
// a process's stack and a stop-predicate panic on Run's own — and
// requires each to finish every process coroutine.
func TestRunLeavesNoCoroutines(t *testing.T) {
	cases := []struct {
		name      string
		build     func() (*System, func() bool)
		wantPanic any
	}{
		{name: "normal-end", build: func() (*System, func() bool) {
			s := MustNew(Config{N: 4, T: 1, Seed: 1, MaxSteps: 200})
			s.Spawn(1, stepForever)
			s.Spawn(2, parkForever)
			s.Spawn(3, func(e *Env) { e.Step() }) // returns on its own
			s.Spawn(4, func(e *Env) {
				for {
					e.Broadcast(Intern("leak.ping"), nil)
					e.StepUntil(e.Now() + 10)
				}
			})
			return s, nil
		}},
		{name: "stop-predicate", build: func() (*System, func() bool) {
			s := MustNew(Config{N: 3, T: 1, Seed: 2, MaxSteps: 100_000})
			s.SpawnAll(stepForever)
			return s, func() bool { return s.Now() >= 50 }
		}},
		{name: "in-run-crash", build: func() (*System, func() bool) {
			s := MustNew(Config{N: 3, T: 1, Seed: 3, MaxSteps: 300,
				Crashes: map[ids.ProcID]Time{2: 40}})
			s.Spawn(1, stepForever)
			s.Spawn(2, parkForever)
			s.Spawn(3, stepForever)
			return s, nil
		}},
		{name: "protocol-panic", wantPanic: "protocol bug", build: func() (*System, func() bool) {
			s := MustNew(Config{N: 3, T: 1, Seed: 4, MaxSteps: 1_000})
			s.Spawn(1, func(e *Env) {
				e.StepUntil(30)
				panic("protocol bug")
			})
			s.Spawn(2, stepForever)
			s.Spawn(3, parkForever)
			return s, nil
		}},
		{name: "sampler-panic", wantPanic: "sampler bug", build: func() (*System, func() bool) {
			s := MustNew(Config{N: 3, T: 1, Seed: 5, MaxSteps: 1_000})
			s.OnAdvance(func(now Time) {
				if now == 20 {
					panic("sampler bug")
				}
			})
			s.Spawn(1, stepForever)
			s.Spawn(2, stepForever)
			s.Spawn(3, parkForever)
			return s, nil
		}},
		{name: "stop-panic-on-run-stack", wantPanic: "stop bug", build: func() (*System, func() bool) {
			// Process 1 exits at tick 1, so every later tick runs on
			// Run's own stack while process 2 stays parked.
			s := MustNew(Config{N: 2, T: 0, Seed: 6, MaxSteps: 1_000})
			s.Spawn(1, func(e *Env) { e.Step() })
			s.Spawn(2, parkForever)
			s.WakeAt(10)
			return s, func() bool {
				if s.Now() >= 10 {
					panic("stop bug")
				}
				return false
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, stop := c.build()
			got, delta, live := runGoroutineDelta(s, stop)
			if got != c.wantPanic {
				t.Fatalf("Run panicked with %v, want %v", got, c.wantPanic)
			}
			if delta > 0 || live > 0 {
				t.Errorf("goroutine count grew by %d across Run, %d coroutines alive: a process coroutine outlived the run", delta, live)
			}
		})
	}
}

// TestCrashUnwindsBeforeNextStep: a process crashed while parked runs
// its deferred functions during the crash tick's phases — before any
// other process takes its next step — both when the phases run on a
// stepping process's stack and when they run on Run's.
func TestCrashUnwindsBeforeNextStep(t *testing.T) {
	const crashAt = 40
	for _, stepper := range []string{"process-stack", "run-stack"} {
		t.Run(stepper, func(t *testing.T) {
			s := MustNew(Config{N: 2, T: 1, Seed: 7, MaxSteps: 200,
				Crashes: map[ids.ProcID]Time{2: crashAt}})
			var log []string
			if stepper == "process-stack" {
				s.Spawn(1, func(e *Env) {
					for {
						log = append(log, fmt.Sprintf("step@%d", e.Now()))
						e.Step()
					}
				})
			} else {
				// Process 1 exits at once: the crash tick runs on Run's
				// stack, and a sampler stands in for the next step.
				s.Spawn(1, func(*Env) {})
				s.OnAdvance(func(now Time) { log = append(log, fmt.Sprintf("step@%d", now)) })
			}
			s.Spawn(2, func(e *Env) {
				defer func() { log = append(log, fmt.Sprintf("unwound@%d", e.p.sys.Now())) }()
				parkForever(e)
			})
			s.Run(nil)

			unwound := -1
			for i, l := range log {
				if l == fmt.Sprintf("unwound@%d", crashAt) {
					unwound = i
				}
			}
			if unwound < 0 {
				t.Fatalf("crashed process never unwound at tick %d: %v", crashAt, log)
			}
			for i, l := range log {
				var at int
				if _, err := fmt.Sscanf(l, "step@%d", &at); err != nil {
					continue
				}
				if at > crashAt && i < unwound {
					t.Fatalf("%s ran before the crashed process unwound: %v", l, log[:unwound+1])
				}
				if at <= crashAt-1 && i > unwound {
					t.Fatalf("%s ran after the unwind: %v", l, log)
				}
			}
		})
	}
}
