package agreement

import (
	"fmt"

	"fdgrid/internal/fd"
	"fdgrid/internal/ids"
	"fdgrid/internal/node"
	"fdgrid/internal/rbcast"
	"fdgrid/internal/sim"
)

// Message tags of the Ω_z-based k-set agreement protocol, interned once
// at package load.
var (
	tagPhase1   = sim.Intern("kset.phase1")
	tagPhase2   = sim.Intern("kset.phase2")
	tagDecision = sim.Intern("kset.decision")
)

// ksetTags parameterizes the wire tags so independent instances can
// coexist (see RunSequence).
type ksetTags struct {
	phase1, phase2, decision sim.Tag
}

var defaultKSetTags = ksetTags{phase1: tagPhase1, phase2: tagPhase2, decision: tagDecision}

type phase1Msg struct {
	R   int
	L   ids.Set // the sender's leader set at the start of round R
	Est Value
}

type phase2Msg struct {
	R   int
	Aux Value
	Bot bool // true means aux = ⊥
}

type decisionMsg struct {
	Val Value
}

// KSet runs the paper's Ω_z-based k-set agreement algorithm (Fig. 3) on
// one process, proposing v. It requires t < n/2; decisions are recorded
// in out. The function returns after deciding (or unwinds on crash).
//
// Structure, following the paper's task T1 (round loop with two phases)
// and T2 (decision dissemination via reliable broadcast):
//
//	r++; L_i ← trusted_i; broadcast PHASE1(r, L_i, est_i)
//	wait ≥ n−t PHASE1(r); wait PHASE1(r) from some p ∈ L_i or L_i ≠ trusted_i
//	aux_i ← v_L if one set L was announced by a majority and a PHASE1(r)
//	        estimate arrived from a member of L, else ⊥
//	broadcast PHASE2(r, aux_i); wait ≥ n−t PHASE2(r)
//	adopt any non-⊥ value; if no ⊥ received, R-broadcast DECISION(est_i)
//	decide upon R-delivering a DECISION (task T2) — which also prevents
//	blocking: as soon as any process decides, all correct processes do.
func KSet(nd *node.Node, rb *rbcast.Layer, oracle fd.Leader, v Value, out *Outcome) Value {
	return ksetRun(nd, rb, oracle, v, out, defaultKSetTags, nil, nil)
}

// ksetRun is the Fig. 3 body with injectable wire tags, a replay queue of
// messages that arrived before this instance started, and a stash hook
// that may consume messages belonging to other instances.
func ksetRun(nd *node.Node, rb *rbcast.Layer, oracle fd.Leader, v Value, out *Outcome,
	tags ksetTags, replay []sim.Message, stash func(sim.Message) bool) Value {
	env := nd.Env()
	n, t, me := env.N(), env.T(), env.ID()
	if 2*t >= n {
		panic(fmt.Sprintf("agreement: KSet requires t < n/2, got n=%d t=%d", n, t))
	}
	out.Propose(me, v)

	est := v
	r := 0
	rounds := ksetRounds{n: n, base: 1}
	rounds.take(env.Reuse())
	defer rounds.release(env.Reuse())
	var decided *Value

	handle := func(m sim.Message) {
		if stash != nil && stash(m) {
			return
		}
		switch m.Tag {
		case tags.phase1:
			p, ok := m.Payload.(phase1Msg)
			if !ok {
				panic(fmt.Sprintf("agreement: phase1 payload %T", m.Payload))
			}
			rounds.phase1(m.From, p)
		case tags.phase2:
			p, ok := m.Payload.(phase2Msg)
			if !ok {
				panic(fmt.Sprintf("agreement: phase2 payload %T", m.Payload))
			}
			rounds.phase2(m.From, p)
		case tags.decision:
			p, ok := m.Payload.(decisionMsg)
			if !ok {
				panic(fmt.Sprintf("agreement: decision payload %T", m.Payload))
			}
			if decided == nil {
				val := p.Val
				decided = &val
			}
		}
	}

	for _, m := range replay {
		handle(m)
	}

	rec := env.Trace()
	for decided == nil {
		r++
		cur := rounds.start(r)
		// Phase 1.
		l := oracle.Trusted(me)
		rec.Round(int64(env.Now()), int(me), r, l)
		env.Broadcast(tags.phase1, phase1Msg{R: r, L: l, Est: est})
		nd.WaitOn(func() bool {
			return decided != nil || cur.p1From.Size() >= n-t
		}, handle)
		if decided != nil {
			break
		}
		nd.WaitUntil(func() bool {
			if decided != nil || cur.p1From.Intersects(l) {
				return true
			}
			return !oracle.Trusted(me).Equal(l)
		}, handle)
		if decided != nil {
			break
		}
		aux, bot := cur.phase1Aux(n)

		// Phase 2.
		env.Broadcast(tags.phase2, phase2Msg{R: r, Aux: aux, Bot: bot})
		nd.WaitOn(func() bool {
			return decided != nil || cur.p2From.Size() >= n-t
		}, handle)
		if decided != nil {
			break
		}
		adopted, sawBot := cur.adopt(me, &est)
		if !adopted {
			continue
		}
		if !sawBot {
			rb.Broadcast(tags.decision, decisionMsg{Val: est})
			nd.WaitOn(func() bool { return decided != nil }, handle)
		}
	}

	rec.Decide(int64(env.Now()), int(me), r, int64(*decided))
	out.Decide(me, Decision{Value: *decided, Round: r, At: env.Now()})
	return *decided
}

// ksetRound buffers one round's messages: p1[q] / p2[q] hold process
// q's PHASE1 / PHASE2 message, valid while q is in p1From / p2From.
type ksetRound struct {
	p1From, p2From ids.Set
	p1             []phase1Msg // index 0..n
	p2             []phase2Msg
}

// ksetRounds holds the buffers of the current and future rounds (bufs[i]
// is round base+i: a faster process can run any number of rounds
// ahead) and recycles a buffer through free when its round ends.
// Messages for finished rounds are never read, so they are dropped.
// Across instances and runs the free list lives in the process's
// Env.Reuse slot (see take and release).
type ksetRounds struct {
	n, base    int
	bufs, free []*ksetRound
}

// at returns round r's buffer, nil once round r has ended.
func (rs *ksetRounds) at(r int) *ksetRound {
	if r < rs.base {
		return nil
	}
	for len(rs.bufs) <= r-rs.base {
		if k := len(rs.free) - 1; k >= 0 {
			rs.bufs, rs.free = append(rs.bufs, rs.free[k]), rs.free[:k]
		} else {
			rs.bufs = append(rs.bufs, &ksetRound{p1: make([]phase1Msg, rs.n+1), p2: make([]phase2Msg, rs.n+1)})
		}
	}
	return rs.bufs[r-rs.base]
}

// take starts the free list from the buffers a previous instance parked
// in slot, keeping only those sized for this n.
func (rs *ksetRounds) take(slot *any) {
	parked, _ := (*slot).([]*ksetRound)
	*slot = nil
	rs.free = parked[:0]
	for _, b := range parked {
		if len(b.p1) == rs.n+1 {
			rs.free = append(rs.free, b)
		}
	}
}

// release parks every buffer in slot for the next instance, emptied.
// It runs deferred, so an instance unwound by a crash or the end of
// the run parks its buffers too. A buffer's p1/p2 entries are left as
// they are: they hold no references, and an entry is only read once
// its sender is back in p1From/p2From, which rewrites it first.
func (rs *ksetRounds) release(slot *any) {
	parked := append(rs.free, rs.bufs...)
	for _, b := range parked {
		b.p1From, b.p2From = ids.Set{}, ids.Set{}
	}
	rs.free, rs.bufs = nil, nil
	*slot = parked
}

// start ends the rounds before r, recycling their buffers, and returns
// round r's.
func (rs *ksetRounds) start(r int) *ksetRound {
	for ; rs.base < r; rs.base++ {
		if len(rs.bufs) > 0 {
			rs.bufs[0].p1From, rs.bufs[0].p2From = ids.Set{}, ids.Set{}
			rs.free = append(rs.free, rs.bufs[0])
			rs.bufs = append(rs.bufs[:0], rs.bufs[1:]...)
		}
	}
	return rs.at(r)
}

func (rs *ksetRounds) phase1(from ids.ProcID, p phase1Msg) {
	if b := rs.at(p.R); b != nil {
		b.p1From, b.p1[from] = b.p1From.Add(from), p
	}
}

func (rs *ksetRounds) phase2(from ids.ProcID, p phase2Msg) {
	if b := rs.at(p.R); b != nil {
		b.p2From, b.p2[from] = b.p2From.Add(from), p
	}
}

// phase1Aux computes aux_i at the end of phase 1: if one leader set L was
// announced by a strict majority of the n processes, and some heard
// sender belongs to L, aux is the estimate of the smallest-id such
// sender; otherwise aux = ⊥. Such an L is also a strict majority of the
// senders heard, so a Boyer–Moore vote pass over them leaves it as the
// candidate and a count pass confirms it.
func (b *ksetRound) phase1Aux(n int) (aux Value, bot bool) {
	var cand ids.Set
	votes, count := 0, 0
	b.p1From.ForEach(func(q ids.ProcID) bool {
		if votes == 0 {
			cand = b.p1[q].L
		}
		if b.p1[q].L.Equal(cand) {
			votes++
		} else {
			votes--
		}
		return true
	})
	b.p1From.ForEach(func(q ids.ProcID) bool {
		if b.p1[q].L.Equal(cand) {
			count++
		}
		return true
	})
	leader := b.p1From.Intersect(cand).Min()
	if 2*count <= n || leader == ids.None {
		return 0, true
	}
	return b.p1[leader].Est, false
}

// adopt ends phase 2: it reports whether a non-⊥ value was adopted into
// est and whether a ⊥ was received. The paper adopts any non-⊥ value
// ("takes one arbitrarily"); this implementation prefers its own echo
// when present, else the smallest-id sender's value — a legal choice
// that maximizes decision diversity (making the z ≤ k tightness
// observable) while keeping runs replayable.
func (b *ksetRound) adopt(me ids.ProcID, est *Value) (adopted, sawBot bool) {
	b.p2From.ForEach(func(from ids.ProcID) bool {
		if pm := b.p2[from]; pm.Bot {
			sawBot = true
		} else if from == me || !adopted {
			*est, adopted = pm.Aux, true
		}
		return true
	})
	return adopted, sawBot
}

// KSetMain returns a process main running KSet over a fresh rbcast layer,
// for runs without a transformation stack underneath.
func KSetMain(oracle fd.Leader, v Value, out *Outcome) func(*sim.Env) {
	return func(env *sim.Env) {
		rb := rbcast.New(env)
		nd := node.New(env, rb)
		KSet(nd, rb, oracle, v, out)
		// Keep serving the event loop so reliable broadcast frames keep
		// being relayed to slower processes.
		nd.RunForever()
	}
}
