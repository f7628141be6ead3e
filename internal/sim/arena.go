package sim

// Arena carries one finished run's buffers into the next System built
// from it: the send-record table and its free list, the eligible list
// of copy refs, the arrivals staging list, the hold buckets, every
// process inbox and every process's protocol scratch slot (Env.Reuse).
// A sweep worker owns one arena and builds each cell's System from it,
// so a cell starts with the capacity the cells before it grew instead
// of growing it again from zero. Buffer capacity never changes a run: a
// System built from an arena runs exactly as one built by New.
//
// Only the record table and the inboxes hold payloads. Every in-flight
// copy is an 8-byte ref {record, destination} (16 bytes with its hold
// release time in arrivals and hold buckets), so the eligible list
// stays small even when hundreds of thousands of copies are in flight.
//
// An Arena is owned by the run token of the System it feeds and has no
// lock: build and run one System at a time from it. New detaches the
// buffers, and only a Run that returns normally hands them back (see
// System.reclaim). A run that panics, or a System that is never run,
// keeps them, and the arena carries on with fresh buffers, so a failed
// run cannot poison the next one.
type Arena struct {
	recs     []sendRec
	freeRecs []int32
	eligible []copyRef
	arrivals []envelope
	buckets  [][]envelope
	inboxes  [][]Message // index 1..N of the largest run so far
	slots    []any       // index 1..N of the last run; kept for that N only
}

// New builds a system from cfg exactly like the package-level New, over
// the buffers the arena holds. It returns an error if cfg is invalid.
func (a *Arena) New(cfg Config) (*System, error) {
	return newSystem(cfg, a)
}

// lend moves the arena's buffers into s, which hands them back when its
// Run returns normally. Inboxes are kept per process id across sizes;
// scratch slots only for a run of the same N, so protocol buffers sized
// for one n never linger under runs of another.
func (a *Arena) lend(s *System) {
	s.arena = a
	s.recs, s.freeRecs, s.eligible, s.arrivals, s.bucketPool = a.recs, a.freeRecs, a.eligible, a.arrivals, a.buckets
	a.recs, a.freeRecs, a.eligible, a.arrivals, a.buckets = nil, nil, nil, nil, nil
	n := s.cfg.N
	for i := 1; i <= n && i < len(a.inboxes); i++ {
		s.procs[i].inbox, a.inboxes[i] = a.inboxes[i], nil
	}
	if len(a.slots) == n+1 {
		s.slots = a.slots
	} else {
		s.slots = make([]any, n+1)
	}
	a.slots = nil
}

// reclaim hands a finished run's buffers back to its arena. Each buffer
// is wiped over the prefix the run ever wrote — the record table over
// its length (records are only ever appended), eligible and arrivals up
// to their high-water marks, the free list to its capacity, each hold
// bucket and inbox over its used length — and no further: the capacity
// past that prefix is already zero, and re-clearing a large buffer
// grown by an earlier run would cost every small run after it. The
// record wipe drops the payloads of copies still in flight at the end
// of the run, so no payload reference survives into the next run.
// Called by Run only after every coroutine has finished and only when
// no panic is pending.
func (s *System) reclaim() {
	a := s.arena
	if a == nil {
		return
	}
	clear(s.recs)
	clear(s.freeRecs[:cap(s.freeRecs)])
	clear(s.eligible[:max(len(s.eligible), s.eligDirty)])
	clear(s.arrivals[:max(len(s.arrivals), s.arrDirty)])
	a.recs, a.freeRecs, a.eligible, a.arrivals = s.recs[:0], s.freeRecs[:0], s.eligible[:0], s.arrivals[:0]
	buckets := s.bucketPool // drained buckets are wiped by route
	for _, t := range s.heldTimes {
		b := s.held[t]
		clear(b)
		buckets = append(buckets, b[:0])
	}
	a.buckets = buckets
	n := s.cfg.N
	if len(a.inboxes) < n+1 {
		a.inboxes = append(a.inboxes, make([][]Message, n+1-len(a.inboxes))...)
	}
	for i := 1; i <= n; i++ {
		p := s.procs[i]
		clear(p.inbox)
		a.inboxes[i] = p.inbox[:0]
		p.inbox = nil
	}
	a.slots = s.slots
	s.recs, s.freeRecs, s.eligible, s.arrivals, s.bucketPool, s.held, s.heldTimes, s.slots = nil, nil, nil, nil, nil, nil, nil, nil
}
