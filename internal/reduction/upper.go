package reduction

import (
	"fmt"

	"fdgrid/internal/fd"
	"fdgrid/internal/ids"
	"fdgrid/internal/node"
	"fdgrid/internal/rbcast"
	"fdgrid/internal/sim"
)

// Message tags of the upper wheel, interned once at package load.
var (
	tagInquiry  = sim.Intern("wheel.inquiry")
	tagResponse = sim.Intern("wheel.response")
	tagLMove    = sim.Intern("wheel.lmove")
)

type inquiryMsg struct {
	Seq int
}

type responseMsg struct {
	Seq  int
	Repr ids.ProcID
}

type lMoveMsg struct {
	Pos ids.LYPos
}

// UpperWheel is the paper's Fig. 6 component. Combined with the lower
// wheel's representatives and a ◇φ_y querier, all processes scan the
// common ring of (L, Y) pairs — Y over the (t−y+1)-subsets of Π, L over
// the z-subsets of Y, z = t+2−x−y — until they rest on a pair where
// every response from a live member of Y carries an identity inside L
// (Fig. 7), or where query(Y) establishes that Y has entirely crashed.
// The exposed trusted set then satisfies Ω_z (Theorem 7).
//
// Task T1's forever loop (inquire → wait → maybe l_move) runs as a state
// machine inside Poll; inquiry rounds are paced so the network keeps up
// (a legal scheduling choice — inquiries still happen infinitely often).
type UpperWheel struct {
	env   *sim.Env
	rb    *rbcast.Layer
	q     fd.Querier
	lower *LowerWheel

	ring        *ids.LYRing
	buffered    map[ids.LYPos]int
	seq         int
	responses   []ids.ProcID // index by responder; ids.None = none this round
	waiting     bool
	lastInquiry sim.Time
	gap         sim.Time
	lmoves      int

	pos ids.LYPos
}

var _ node.Layer = (*UpperWheel)(nil)

// NewUpperWheel builds the upper-wheel layer of one process. x, y are
// the scope parameters of the underlying ◇S_x and ◇φ_y oracles; the
// produced leader-set size is z = t+2−x−y. Constraints (paper §4):
// 1 ≤ x, 0 ≤ y ≤ t, x+y ≤ t+1.
func NewUpperWheel(env *sim.Env, rb *rbcast.Layer, q fd.Querier, lower *LowerWheel, x, y int) *UpperWheel {
	n, t := env.N(), env.T()
	z := t + 2 - x - y
	if x < 1 || x > n || y < 0 || y > t || z < 1 {
		panic(fmt.Sprintf("reduction: upper wheel invalid parameters n=%d t=%d x=%d y=%d (z=%d)", n, t, x, y, z))
	}
	ySize := t - y + 1
	w := &UpperWheel{
		env:         env,
		rb:          rb,
		q:           q,
		lower:       lower,
		ring:        ids.NewLYRing(n, ySize, z),
		buffered:    make(map[ids.LYPos]int),
		responses:   make([]ids.ProcID, n+1),
		gap:         sim.Time(4 * n),
		lastInquiry: -1 << 30,
	}
	for i := range w.responses {
		w.responses[i] = ids.None
	}
	w.pos = w.ring.Current()
	return w
}

// Z returns the produced leader-set size z = t+2−x−y.
func (w *UpperWheel) Z() int { return w.ring.Current().L.Size() }

// Pos returns the current ring position (diagnostics, tests).
func (w *UpperWheel) Pos() ids.LYPos {
	return w.pos
}

// Trusted computes the Ω_z output (task T4): if query(Y_i) says the whole
// candidate region crashed, the smallest provably-live process outside
// Y_i; otherwise the current leader-set candidate L_i. Run-token
// owned, like all emulated outputs.
func (w *UpperWheel) Trusted() ids.Set {
	pos := w.pos
	me := w.env.ID()
	if !w.q.Query(me, pos.Y) {
		return pos.L
	}
	// All of Y_i crashed: at most t−y+1 of the ≤ t crashes are inside
	// Y_i, so querying Y_i ∪ {j} stays within the informative region and
	// returns false exactly when j is alive.
	for j := 1; j <= w.env.N(); j++ {
		id := ids.ProcID(j)
		if pos.Y.Contains(id) {
			continue
		}
		if !w.q.Query(me, pos.Y.Add(id)) {
			return ids.NewSet(id)
		}
	}
	return ids.EmptySet() // unreachable while crashes ≤ t
}

// NextWake implements node.WakeHinter: between inquiry rounds the wheel
// sleeps until the pacing gap elapses; while waiting for responses it
// only needs a pure time wake when the querier's answer to query(Y_i)
// can change (responses themselves arrive as messages).
func (w *UpperWheel) NextWake(now sim.Time) sim.Time {
	if !w.waiting {
		return w.lastInquiry + w.gap
	}
	return fd.NextChangeOf(w.q, now)
}

// Handle implements node.Layer.
func (w *UpperWheel) Handle(m sim.Message) (sim.Message, bool) {
	switch m.Tag {
	case tagInquiry:
		iq, ok := m.Payload.(inquiryMsg)
		if !ok {
			panic(fmt.Sprintf("reduction: inquiry payload %T", m.Payload))
		}
		// Task T3: answer with the lower wheel's current representative.
		w.env.Send(m.From, tagResponse, responseMsg{Seq: iq.Seq, Repr: w.lower.Repr()})
		return sim.Message{}, false
	case tagResponse:
		rp, ok := m.Payload.(responseMsg)
		if !ok {
			panic(fmt.Sprintf("reduction: response payload %T", m.Payload))
		}
		if rp.Seq == w.seq {
			w.responses[m.From] = rp.Repr
		}
		return sim.Message{}, false
	case tagLMove:
		mv, ok := m.Payload.(lMoveMsg)
		if !ok {
			panic(fmt.Sprintf("reduction: l_move payload %T", m.Payload))
		}
		w.buffered[mv.Pos]++
		return sim.Message{}, false
	default:
		return m, true
	}
}

// Poll implements node.Layer: consume matching l_moves (task T2), then
// advance task T1's inquire/wait state machine.
func (w *UpperWheel) Poll() {
	moved := false
	for len(w.buffered) > 0 && w.buffered[w.pos] > 0 {
		w.buffered[w.pos]--
		w.ring.Next()
		w.pos = w.ring.Current()
		w.lmoves++
		moved = true
	}
	if moved {
		// The upper wheel's position has no single leader; trace the
		// candidate leader set L and leave the leader slot 0.
		w.env.Trace().Wheel(int64(w.env.Now()), int(w.env.ID()), "upper",
			0, w.pos.L, w.lmoves)
	}
	pos := w.pos

	me := w.env.ID()
	if !w.waiting {
		now := w.env.Now()
		if now-w.lastInquiry < w.gap {
			return
		}
		w.seq++
		for i := range w.responses {
			w.responses[i] = ids.None
		}
		w.waiting = true
		w.lastInquiry = now
		w.env.Broadcast(tagInquiry, inquiryMsg{Seq: w.seq})
		return
	}

	// Waiting (line 03): exit on a response from a member of the current
	// Y_i, or on query(Y_i) = true. Y_i may have changed during the wait.
	var recFrom ids.Set
	gotResponder := false
	for from := 1; from < len(w.responses); from++ {
		repr := w.responses[from]
		if repr != ids.None && pos.Y.Contains(ids.ProcID(from)) {
			gotResponder = true
			recFrom = recFrom.Add(repr)
		}
	}
	if !gotResponder && !w.q.Query(me, pos.Y) {
		return // keep waiting
	}
	// Lines 04-06: move on if responses arrived and none exhibits a
	// representative inside L_i.
	if !recFrom.IsEmpty() && !recFrom.Intersects(pos.L) {
		w.rb.Broadcast(tagLMove, lMoveMsg{Pos: pos})
	}
	w.waiting = false
}
