package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"fdgrid/internal/ids"
)

// TestIntnMatchesMathRand pins the delivery phase's draw source: every
// run's random choices must consume the seed exactly as
// math/rand.Rand.Intn does, because the committed golden results encode
// that draw sequence. If intn ever diverges, every golden in the repo
// would silently shift — this test makes the divergence loud instead.
func TestIntnMatchesMathRand(t *testing.T) {
	for _, seed := range []int64{0, 1, 7, 20260807} {
		sys := MustNew(Config{N: 2, T: 0, Seed: seed, MaxSteps: 10})
		ref := rand.New(rand.NewSource(seed))
		// Mixed bounds: powers of two (mask path), odd bounds
		// (rejection path), 1 (degenerate), and large values near the
		// int32 rejection threshold.
		bounds := []int{1, 2, 3, 7, 8, 64, 100, 1000, 65536, 1 << 30, 1<<30 + 1}
		for round := 0; round < 2000; round++ {
			n := bounds[round%len(bounds)]
			if got, want := sys.intn(n), ref.Intn(n); got != want {
				t.Fatalf("seed %d draw %d (bound %d): intn = %d, rand.Intn = %d",
					seed, round, n, got, want)
			}
		}
	}
}

// TestBatchedDeliveryMetricsExact checks that the batched delivery path
// keeps the per-tag counters per-message-exact: a run whose messages
// land through the coalesced broadcast/flush path reports the same
// MetricsSnapshot as an equivalent run sending every copy individually
// — including drops at a crashed receiver.
func TestBatchedDeliveryMetricsExact(t *testing.T) {
	const (
		n     = 8
		ticks = 40
	)
	tagA := Intern("batch.a")
	tagB := Intern("batch.b")
	cfg := Config{
		N: n, T: 1, Seed: 3, MaxSteps: ticks,
		Bandwidth: 2 * n * n,
		Crashes:   map[ids.ProcID]Time{4: 10},
	}

	run := func(broadcast bool) MetricsSnapshot {
		sys := MustNew(cfg)
		sys.SpawnAll(func(env *Env) {
			for {
				next := env.Now() + 1
				if broadcast {
					env.Broadcast(tagA, nil)
					env.Broadcast(tagB, nil)
				} else {
					for q := 1; q <= env.N(); q++ {
						env.Send(ids.ProcID(q), tagA, nil)
					}
					for q := 1; q <= env.N(); q++ {
						env.Send(ids.ProcID(q), tagB, nil)
					}
				}
				for {
					if _, ok := env.StepUntil(next); !ok {
						break
					}
				}
			}
		})
		sys.Run(nil)
		return sys.Metrics().Snapshot()
	}

	batched, unbatched := run(true), run(false)
	if !reflect.DeepEqual(batched, unbatched) {
		t.Fatalf("metrics diverge between broadcast and per-copy sends:\nbatched:   %+v\nunbatched: %+v",
			batched, unbatched)
	}
	if batched.Dropped[tagA.String()] == 0 || batched.Dropped[tagB.String()] == 0 {
		t.Fatalf("expected drops at the crashed receiver, got %+v", batched.Dropped)
	}
	wantSent := int64(ticks-1) * n * n // every live tick: n procs × n copies per tag
	if batched.Sent[tagA.String()] >= wantSent {
		// Crash at tick 10 removes one sender: strictly fewer sends.
		t.Fatalf("crash did not reduce sends: %d", batched.Sent[tagA.String()])
	}
	for _, snap := range []MetricsSnapshot{batched, unbatched} {
		for _, tag := range []string{tagA.String(), tagB.String()} {
			if snap.Delivered[tag]+snap.Dropped[tag] > snap.Sent[tag] {
				t.Fatalf("tag %s: delivered %d + dropped %d exceeds sent %d",
					tag, snap.Delivered[tag], snap.Dropped[tag], snap.Sent[tag])
			}
		}
	}
}
