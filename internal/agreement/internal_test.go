package agreement

import (
	"math/rand"
	"testing"

	"fdgrid/internal/ids"
)

// refPhase1Aux is the map-based phase-1 aux computation the protocol
// ran before its dense round buffers, kept as the reference the
// buffer's allocation-free scan must agree with.
func refPhase1Aux(msgs map[ids.ProcID]phase1Msg, n int) (aux Value, bot bool) {
	counts := make(map[ids.Set]int, len(msgs))
	var major ids.Set
	found := false
	for _, pm := range msgs {
		counts[pm.L]++
		if 2*counts[pm.L] > n {
			major = pm.L
			found = true
		}
	}
	if !found {
		return 0, true
	}
	var bestFrom ids.ProcID
	for from, pm := range msgs {
		if !major.Contains(from) {
			continue
		}
		if bestFrom == ids.None || from < bestFrom {
			bestFrom = from
			aux = pm.Est
		}
	}
	if bestFrom == ids.None {
		return 0, true
	}
	return aux, false
}

// roundOf buffers msgs as round 1's PHASE1 messages.
func roundOf(n int, msgs map[ids.ProcID]phase1Msg) *ksetRound {
	rs := ksetRounds{n: n, base: 1}
	for from, pm := range msgs {
		rs.phase1(from, pm)
	}
	return rs.start(1)
}

// TestPhase1Aux covers the phase-1 aux computation (paper Fig. 3
// lines 07-08) in isolation.
func TestPhase1Aux(t *testing.T) {
	l12 := ids.NewSet(1, 2)
	l34 := ids.NewSet(3, 4)
	const n = 5

	t.Run("no majority", func(t *testing.T) {
		b := roundOf(n, map[ids.ProcID]phase1Msg{
			1: {R: 1, L: l12, Est: 10},
			2: {R: 1, L: l34, Est: 20},
		})
		if _, bot := b.phase1Aux(n); !bot {
			t.Error("aux without a majority leader set must be ⊥")
		}
	})

	t.Run("majority without member estimate", func(t *testing.T) {
		// Three senders announce {1,2} but none of them *is* 1 or 2.
		b := roundOf(n, map[ids.ProcID]phase1Msg{
			3: {R: 1, L: l12, Est: 30},
			4: {R: 1, L: l12, Est: 40},
			5: {R: 1, L: l12, Est: 50},
		})
		if _, bot := b.phase1Aux(n); !bot {
			t.Error("aux must be ⊥ when no member of the majority set was heard")
		}
	})

	t.Run("majority with member estimates", func(t *testing.T) {
		b := roundOf(n, map[ids.ProcID]phase1Msg{
			1: {R: 1, L: l12, Est: 10},
			2: {R: 1, L: l12, Est: 20},
			5: {R: 1, L: l12, Est: 50},
		})
		aux, bot := b.phase1Aux(n)
		if bot {
			t.Fatal("aux = ⊥ with members heard")
		}
		if aux != 10 {
			t.Errorf("aux = %d, want the smallest-id member's estimate 10", aux)
		}
	})

	t.Run("majority counts senders not sets", func(t *testing.T) {
		// Two senders of {1,2} is not a majority of n=5.
		b := roundOf(n, map[ids.ProcID]phase1Msg{
			1: {R: 1, L: l12, Est: 10},
			2: {R: 1, L: l12, Est: 20},
		})
		if _, bot := b.phase1Aux(n); !bot {
			t.Error("2 of 5 announcing the same set is not a majority")
		}
	})
}

// TestPhase1AuxMatchesReference compares the vote-and-count scan with
// the map-based reference on random rounds: random sender subsets, each
// sender announcing one of a few random leader sets — one of them often
// pushed past a majority — with random estimates.
func TestPhase1AuxMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{5, 64, 65, 256} {
		majorities := 0
		for trial := 0; trial < 400; trial++ {
			pool := make([]ids.Set, 1+rng.Intn(3))
			for i := range pool {
				for q := 1; q <= n; q++ {
					if rng.Intn(4) == 0 {
						pool[i] = pool[i].Add(ids.ProcID(q))
					}
				}
			}
			bias := rng.Intn(2) == 0
			msgs := make(map[ids.ProcID]phase1Msg)
			for q := 1; q <= n; q++ {
				if rng.Intn(8) == 0 {
					continue // not heard
				}
				l := pool[rng.Intn(len(pool))]
				if bias && rng.Intn(4) != 0 {
					l = pool[0]
				}
				msgs[ids.ProcID(q)] = phase1Msg{R: 1, L: l, Est: Value(rng.Intn(1000))}
			}
			wantAux, wantBot := refPhase1Aux(msgs, n)
			gotAux, gotBot := roundOf(n, msgs).phase1Aux(n)
			if gotAux != wantAux || gotBot != wantBot {
				t.Fatalf("n=%d trial %d: phase1Aux = (%d, %v), reference (%d, %v)",
					n, trial, gotAux, gotBot, wantAux, wantBot)
			}
			if !wantBot {
				majorities++
			}
		}
		if majorities == 0 {
			t.Errorf("n=%d: no trial reached a non-⊥ aux; the comparison is vacuous", n)
		}
	}
}

// TestRoundBufferSenders covers the sender sets behind the n−t waits and
// the leader-heard check: messages for a future round are kept until
// that round starts, and late messages for a finished round are dropped
// and never leak into the recycled buffer.
func TestRoundBufferSenders(t *testing.T) {
	const n = 7
	rs := ksetRounds{n: n, base: 1}
	// Round 3 traffic arrives while this process is still in round 1.
	rs.phase1(5, phase1Msg{R: 3, Est: 50})
	rs.phase2(6, phase2Msg{R: 3, Aux: 60})
	cur := rs.start(1)
	rs.phase1(2, phase1Msg{R: 1})
	if got := cur.p1From; !got.Equal(ids.NewSet(2)) {
		t.Fatalf("round 1 senders = %v, want {2}", got)
	}
	if cur.p1From.Intersects(ids.NewSet(5, 6)) {
		t.Error("a round-3 sender leaked into round 1")
	}

	cur = rs.start(3)
	if !cur.p1From.Equal(ids.NewSet(5)) || !cur.p2From.Equal(ids.NewSet(6)) {
		t.Fatalf("round 3 senders = %v / %v, want the early {5} / {6}", cur.p1From, cur.p2From)
	}
	if !cur.p1From.Intersects(ids.NewSet(5, 6)) {
		t.Error("early sender 5 not found in round 3")
	}
	if cur.p1From.Intersects(ids.NewSet(1, 3)) {
		t.Error("phantom sender found")
	}
	if cur.p1[5].Est != 50 || cur.p2[6].Aux != 60 {
		t.Errorf("early payloads lost: est %d aux %d", cur.p1[5].Est, cur.p2[6].Aux)
	}

	// Late messages for the finished rounds 1 and 2 are dropped.
	rs.phase1(4, phase1Msg{R: 1})
	rs.phase2(4, phase2Msg{R: 2})
	if rs.at(1) != nil || rs.at(2) != nil {
		t.Error("a finished round still has a buffer")
	}
	if cur.p1From.Contains(4) || cur.p2From.Contains(4) {
		t.Error("a late message landed in the current round")
	}
	// The recycled buffers come back empty.
	if next := rs.start(4); !next.p1From.IsEmpty() || !next.p2From.IsEmpty() {
		t.Errorf("recycled round 4 starts with senders %v / %v", next.p1From, next.p2From)
	}
}

// TestRoundBufferSteadyStateAllocs: once the free list is warm, a whole
// round at n=256 — a full phase 1 with the next round's traffic
// arriving early, the aux scan, a full phase 2, the adoption walk and
// the recycling — allocates nothing.
func TestRoundBufferSteadyStateAllocs(t *testing.T) {
	const n = 256
	rs := ksetRounds{n: n, base: 1}
	l := ids.NewSet(1, 2, 3)
	est := Value(0)
	r := 0
	round := func() {
		r++
		cur := rs.start(r)
		for q := 1; q <= n; q++ {
			rs.phase1(ids.ProcID(q), phase1Msg{R: r, L: l, Est: Value(q)})
			rs.phase1(ids.ProcID(q), phase1Msg{R: r + 1, L: l, Est: Value(q)})
		}
		if cur.p1From.Size() < n || !cur.p1From.Intersects(l) {
			t.Fatal("phase 1 senders missing")
		}
		aux, bot := cur.phase1Aux(n)
		for q := 1; q <= n; q++ {
			rs.phase2(ids.ProcID(q), phase2Msg{R: r, Aux: aux, Bot: bot})
		}
		if adopted, sawBot := cur.adopt(7, &est); !adopted || sawBot {
			t.Fatal("phase 2 did not adopt")
		}
	}
	round()
	round()
	if allocs := testing.AllocsPerRun(50, round); allocs != 0 {
		t.Errorf("steady-state round allocates %.1f objects, want 0", allocs)
	}
	if est != 1 {
		t.Errorf("adopted %d, want the smallest leader's estimate 1", est)
	}
}

func TestDistinctValuesSorted(t *testing.T) {
	o := NewOutcome()
	o.Propose(1, 30)
	o.Propose(2, 10)
	o.Propose(3, 20)
	o.Decide(1, Decision{Value: 30})
	o.Decide(2, Decision{Value: 10})
	o.Decide(3, Decision{Value: 20})
	got := o.DistinctValues()
	if len(got) != 3 || got[0] != 10 || got[1] != 20 || got[2] != 30 {
		t.Errorf("DistinctValues = %v, want sorted [10 20 30]", got)
	}
}

func TestAllDecidedEmptyCorrectSet(t *testing.T) {
	o := NewOutcome()
	if !o.AllDecided(ids.EmptySet())() {
		t.Error("vacuously true predicate returned false")
	}
}
