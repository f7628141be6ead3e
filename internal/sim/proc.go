package sim

import (
	"fmt"

	"fdgrid/internal/ids"
	"fdgrid/internal/trace"
)

// Message is a point-to-point message. Payloads must be immutable values:
// they are shared between sender and receiver without copying.
type Message struct {
	From, To    ids.ProcID
	Tag         Tag
	Payload     any
	SentAt      Time
	DeliveredAt Time
}

// sendRec is one accepted Send, Broadcast or Multicast: the fields all
// of its copies share, stored once in System.recs. left counts the
// copies not yet taken by the delivery phase; when it reaches zero the
// record is wiped, dropping its payload, and its index goes on the free
// list for the next send to reuse.
type sendRec struct {
	from    ids.ProcID
	tag     Tag
	left    int32
	payload any
	sentAt  Time
}

// copyRef is one in-flight copy: the index of its send record and its
// destination. The delivery phase builds the copy's Message from the
// record as it appends it to the destination's inbox.
type copyRef struct {
	rec int32
	to  int32
}

type envelope struct {
	ref       copyRef
	notBefore Time // scripted holds: earliest deliverable tick
}

// procKilled is the sentinel used to unwind a crashed or stopped process
// coroutine. It never escapes the package: the coroutine body recovers it.
type procKilled struct{}

// Proc is the runtime state of one simulated process.
//
// Ownership: execution is strictly sequential — at any instant exactly
// one of the run's goroutines runs (Run's dispatch loop, or one process
// coroutine), and that one holds the run token. Every field below is
// accessed only by the token holder: the process while it runs, the
// dispatch loop or the tick phases while it is parked or exited. The
// coroutine switches order all of it, so none of these fields need
// locks or atomics (the race detector checks this claim on every -race
// run).
type Proc struct {
	id   ids.ProcID
	sys  *System
	main func(*Env)

	// The process's coroutine (iter.Pull over its main, see
	// System.launch): resume switches into it and returns once it parks
	// or exits; park, the coroutine's yield, is how a parked process
	// hands control back — it returns false when the process was stopped
	// and must unwind; stop unwinds a parked process synchronously and
	// is a no-op once the coroutine has finished. All three are nil for
	// processes that never launched.
	resume func() (struct{}, bool)
	park   func(struct{}) bool
	stop   func()

	inbox    []Message // appended by the scheduler (delivery), drained by the process
	nextRead int
	dead     bool // set by the scheduler; the process unwinds at its next Env call
}

func newProc(id ids.ProcID, sys *System) *Proc {
	return &Proc{id: id, sys: sys}
}

// Env is the interface protocol code uses to interact with the system.
// All methods must be called from the owning process's main (the one
// passed to Spawn); they unwind it once the process has crashed or the
// run has stopped.
type Env struct {
	p *Proc
}

// ID returns the identity of this process.
func (e *Env) ID() ids.ProcID { return e.p.id }

// N returns the number of processes in the system.
func (e *Env) N() int { return e.p.sys.cfg.N }

// T returns the resilience bound t.
func (e *Env) T() int { return e.p.sys.cfg.T }

// All returns the set {1..n} of all process identities (paper's Π).
func (e *Env) All() ids.Set { return ids.FullSet(e.N()) }

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.p.sys.Now() }

// Trace returns the run's decision-trace recorder, nil when the run is
// untraced. Recorder methods are nil-safe and level-gated, so protocol
// code records unconditionally:
//
//	env.Trace().Decide(int64(env.Now()), int(env.ID()), r, v)
func (e *Env) Trace() *trace.Recorder { return e.p.sys.rec }

// checkAlive unwinds the process if it crashed or the run
// stopped (protocol code that swallowed a procKilled panic re-unwinds
// at its next Env call).
func (e *Env) checkAlive() {
	if e.p.dead {
		panic(procKilled{})
	}
}

// Send transmits a message to process "to" over the reliable channel.
// SentAt is stamped by the network at acceptance time (System.send owns
// the stamp); sends from an already-crashed process are refused there.
func (e *Env) Send(to ids.ProcID, tag Tag, payload any) {
	e.checkAlive()
	if to < 1 || int(to) > e.N() {
		panic(fmt.Sprintf("sim: Send to unknown process %d", to))
	}
	e.p.sys.send(e.p.id, to, tag, payload)
}

// Broadcast sends the message to every process, itself included
// (the paper's Broadcast(m) macro). It is not reliable: a process that
// crashes mid-broadcast in the model may reach only a subset; here the
// whole call either happens before the crash tick or unwinds, which is
// one of the legal behaviours.
func (e *Env) Broadcast(tag Tag, payload any) {
	e.checkAlive()
	e.p.sys.broadcast(e.p.id, tag, payload)
}

// Multicast sends the message to every member of dests (ascending
// identity order, the same order a Send loop over dests.Members would
// use), sharing Broadcast's single-stamp fan-out fast path. Members
// above N are rejected like Send's unknown-process check.
func (e *Env) Multicast(dests ids.Set, tag Tag, payload any) {
	e.checkAlive()
	if int(dests.Max()) > e.N() {
		panic(fmt.Sprintf("sim: Multicast to unknown process %d", dests.Max()))
	}
	e.p.sys.multicast(e.p.id, dests, tag, payload)
}

// Step blocks until something happens, then returns. If a new message is
// available it returns (msg, true); if the process was merely woken by a
// clock tick (time advanced, oracle outputs may have changed) it returns
// (Message{}, false). Protocol event loops call Step repeatedly and
// re-evaluate their wait conditions after each return.
//
// Step is StepUntil with the next tick as the wake condition: a process
// using it is woken on every tick, which is always correct but prevents
// the scheduler from skipping idle stretches of virtual time.
func (e *Env) Step() (Message, bool) {
	return e.StepUntil(0)
}

// StepUntil is Step with a declared wake condition: it blocks until a new
// message is available (returning it with true) or the virtual clock has
// reached wake (returning (Message{}, false)). A process whose waits are
// purely message-driven passes Never; one pacing itself ("act again at
// time τ") passes τ. The declared deadline is what lets the scheduler
// wake only the processes that need the current tick — and skip ticks
// nobody needs at all.
//
// A wake time at or before the current tick behaves like Step: the call
// always blocks until at least the next tick, so loops around StepUntil
// cannot spin without yielding to the scheduler.
func (e *Env) StepUntil(wake Time) (Message, bool) {
	p := e.p
	s := p.sys
	if now := s.Now(); wake <= now {
		wake = now + 1
	}
	for {
		if p.dead {
			panic(procKilled{})
		}
		if p.nextRead < len(p.inbox) {
			m := p.inbox[p.nextRead]
			p.nextRead++
			return m, true
		}
		if p.nextRead > 0 {
			// Inbox fully drained: zero the consumed prefix in one bulk
			// clear (cheaper than a per-message wipe at read time, same
			// payload-retention hygiene) and reset, so long runs reuse
			// the same backing array instead of growing it forever.
			clear(p.inbox)
			p.inbox = p.inbox[:0]
			p.nextRead = 0
		}
		if s.Now() >= wake {
			return Message{}, false
		}
		// Park: publish the wake condition, then run the tick phases
		// right here while nothing is due. If this process turns out to
		// be the next one due it keeps running — zero switches.
		// Otherwise it yields to Run's dispatch loop, which wakes
		// whoever is due (in launch, before the token circulates, every
		// park yields straight back to launch). Whoever wakes a process
		// clears its parked bit first; a false yield means the process
		// was stopped while parked and unwinds.
		s.parkedSet.set(p.id)
		s.deadlines[p.id] = wake
		if s.running && s.keepRunning(p) {
			continue
		}
		if !p.park(struct{}{}) {
			panic(procKilled{})
		}
	}
}

// WaitUntil runs the event loop until pred() is true: each delivered
// message is passed to onMsg (which may be nil), and pred is re-evaluated
// after every message and every clock tick. pred is evaluated first, so a
// condition that already holds returns immediately.
func (e *Env) WaitUntil(pred func() bool, onMsg func(Message)) {
	for !pred() {
		m, ok := e.Step()
		if ok && onMsg != nil {
			onMsg(m)
		}
	}
}

// Reuse returns this process's protocol scratch slot: one opaque value
// per process that a protocol may park its buffers in when it finishes
// and pick up again when it next starts. When the System was built from
// an Arena, the slot outlives the run and the next run's process of the
// same id finds it (only if that run has the same N); otherwise it is
// nil at the start of every run. Whatever a slot holds must carry no
// payload reference and must be usable by any later run: the protocol
// resets it before parking it. Owned by the run token; call it from the
// process's main.
func (e *Env) Reuse() *any { return &e.p.sys.slots[e.p.id] }

// Crashed reports whether this process has been crashed or stopped.
// Like all run state it is owned by the run token: call it from
// scheduler-side code (OnTick/OnAdvance samplers, stop predicates) or
// after Run returns — protocol code never observes true, its next Env
// call unwinds instead.
func (e *Env) Crashed() bool {
	return e.p.dead
}
