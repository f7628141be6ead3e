package sim

import (
	"fmt"
	"testing"

	"fdgrid/internal/ids"
)

// recPayload is a conservation-test payload: a pointer, so a record
// that kept it after its last copy was taken would show as non-nil,
// naming the send it came from so receivers can check the copy.
type recPayload struct {
	from ids.ProcID
	at   Time
	tag  Tag
}

// taken sums the delivered and dropped counters: every copy the
// delivery phase has taken so far.
func taken(m *Metrics) int64 {
	var n int64
	for _, v := range m.delivered {
		n += v
	}
	for _, v := range m.dropped {
		n += v
	}
	return n
}

// checkConservation asserts the send-record invariant at a tick
// boundary: every record's left count equals the copy refs naming it
// across arrivals, the hold buckets and eligible, the left counts sum
// to InFlight, and every record on the free list is wiped.
func checkConservation(t *testing.T, s *System, now Time) {
	t.Helper()
	refs := make([]int32, len(s.recs))
	count := func(c copyRef) {
		if c.rec < 0 || int(c.rec) >= len(s.recs) {
			t.Fatalf("tick %d: copy ref names record %d of %d", now, c.rec, len(s.recs))
		}
		refs[c.rec]++
	}
	for _, c := range s.eligible {
		count(c)
	}
	for _, e := range s.arrivals {
		count(e.ref)
	}
	for _, tm := range s.heldTimes {
		for _, e := range s.held[tm] {
			count(e.ref)
		}
	}
	var left int64
	for i, r := range s.recs {
		if r.left != refs[i] {
			t.Fatalf("tick %d: record %d has %d copies left but %d refs in flight", now, i, r.left, refs[i])
		}
		left += int64(r.left)
	}
	if got := int64(s.InFlight()); left != got {
		t.Fatalf("tick %d: live records hold %d copies, InFlight() = %d", now, left, got)
	}
	for _, i := range s.freeRecs {
		if s.recs[i] != (sendRec{}) {
			t.Fatalf("tick %d: free record %d is not wiped: %+v", now, i, s.recs[i])
		}
	}
}

// TestSendRecordConservation drives runs mixing Send, Broadcast and
// Multicast, with and without scripted holds (run-from-start and
// windowed), through a mid-run crash whose inbound batches are dropped
// and through both bandwidth-limited and full-delivery ticks. At every
// scheduled tick the copies left over live records must equal the copy
// refs in flight and InFlight(); every delivered Message must carry its
// send's fields; and once the run drains, every record must be free,
// wiped and payload-free.
func TestSendRecordConservation(t *testing.T) {
	const (
		n        = 6
		lastSend = 120
	)
	tagS, tagB, tagM := Intern("rec.send"), Intern("rec.bcast"), Intern("rec.mcast")
	cases := []struct {
		name  string
		holds []Hold
	}{
		{name: "no-holds"},
		{name: "holds", holds: []Hold{
			{From: ids.NewSet(1), To: ids.NewSet(2), Until: 150},
			{From: ids.NewSet(4, 5), To: ids.NewSet(1, 6), Since: 40, Until: 180},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				N: n, T: 2, Seed: 11, MaxSteps: 5_000, Bandwidth: n,
				Crashes: map[ids.ProcID]Time{3: 60},
				Holds:   tc.holds,
			}
			s := MustNew(cfg)
			var bad []string
			s.SpawnAll(func(e *Env) {
				me := int(e.ID())
				for {
					now := e.Now()
					if now <= lastSend {
						switch (int(now) + me) % 5 {
						case 0:
							e.Broadcast(tagB, &recPayload{e.ID(), now, tagB})
						case 1:
							e.Multicast(ids.NewSet(ids.ProcID(me%n+1), 3, 6), tagM, &recPayload{e.ID(), now, tagM})
						case 2:
							e.Send(ids.ProcID((me+1)%n+1), tagS, &recPayload{e.ID(), now, tagS})
						}
					}
					for {
						m, ok := e.StepUntil(now + Time(me%3+1))
						if !ok {
							break
						}
						p, _ := m.Payload.(*recPayload)
						if p == nil || p.from != m.From || p.at != m.SentAt || p.tag != m.Tag || m.To != e.ID() || m.DeliveredAt < m.SentAt || m.DeliveredAt > e.Now() {
							bad = append(bad, fmt.Sprintf("%v got %+v (payload %+v)", e.ID(), m, p))
						}
					}
				}
			})
			var partial, full int
			var lastTaken int64
			s.OnAdvance(func(now Time) {
				checkConservation(t, s, now)
				if tk := taken(s.metrics); len(s.eligible) > 0 {
					partial++
					lastTaken = tk
				} else if tk > lastTaken {
					full++
					lastTaken = tk
				}
			})
			rep := s.Run(func() bool { return s.Now() > 200 && s.InFlight() == 0 })

			if len(bad) > 0 {
				t.Fatalf("%d copies arrived with the wrong fields, first: %s", len(bad), bad[0])
			}
			if !rep.StoppedEarly {
				t.Fatalf("run did not drain: %d copies in flight at %d", s.InFlight(), rep.Steps)
			}
			if partial == 0 || full == 0 {
				t.Fatalf("want both delivery forms, got %d bandwidth-limited and %d full ticks", partial, full)
			}
			if rep.Messages.Dropped[tagB.String()] == 0 {
				t.Fatalf("want copies dropped at the crashed process, got %+v", rep.Messages.Dropped)
			}
			if len(s.recs) == 0 || len(s.freeRecs) != len(s.recs) {
				t.Fatalf("drained run: %d of %d records free", len(s.freeRecs), len(s.recs))
			}
			for i, r := range s.recs {
				if r != (sendRec{}) {
					t.Fatalf("drained run: record %d not wiped: %+v", i, r)
				}
			}
		})
	}
}
