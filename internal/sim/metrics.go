package sim

import "sort"

// Metrics counts message traffic per tag. Counters are plain int64
// slices indexed by Tag and owned by the run in lockstep: they are
// bumped by process mains (sends) and the tick phases (deliveries,
// drops), and the run token serializes all of those, so the bump path
// is a bare array index — no locks, no atomics, no string hashing.
//
// Ownership contract (this replaces the old "all methods are safe for
// concurrent use" claim): call the live readers — Sent, TotalSent,
// Snapshot — from code holding the run token, i.e. from process mains,
// stop predicates, OnTick/OnAdvance samplers, or any time after Run has
// returned. Do not call them from an unrelated goroutine while the run
// is in progress. Run returns only after every process coroutine has
// finished, so post-run reads from any goroutine are race-clean.
type Metrics struct {
	sent      []int64 // indexed by Tag; grown on demand
	delivered []int64
	dropped   []int64
	totalSent int64
}

func newMetrics() *Metrics {
	// Size to the tags interned so far: protocol packages intern theirs
	// in var declarations, so by the time a System exists the slices
	// almost always have their final size and the grow path never runs.
	n := internedTags() + 8
	return &Metrics{
		sent:      make([]int64, n),
		delivered: make([]int64, n),
		dropped:   make([]int64, n),
	}
}

// grown returns s with at least tag+1 entries.
func grown(s []int64, tag Tag) []int64 {
	if int(tag) < len(s) {
		return s
	}
	out := make([]int64, int(tag)+8)
	copy(out, s)
	return out
}

func (m *Metrics) countSent(tag Tag) {
	m.sent = grown(m.sent, tag)
	m.sent[tag]++
	m.totalSent++
}

// The N variants bump a counter by a whole batch's worth at once.
// Counters stay per-message-exact: callers pass the number of messages
// in the batch, so a batched run and a message-at-a-time run of the
// same schedule produce identical snapshots.

func (m *Metrics) countSentN(tag Tag, n int64) {
	m.sent = grown(m.sent, tag)
	m.sent[tag] += n
	m.totalSent += n
}

func (m *Metrics) countDeliveredN(tag Tag, n int64) {
	m.delivered = grown(m.delivered, tag)
	m.delivered[tag] += n
}

func (m *Metrics) countDroppedN(tag Tag, n int64) {
	m.dropped = grown(m.dropped, tag)
	m.dropped[tag] += n
}

// Sent returns how many messages with the given tag have been sent.
func (m *Metrics) Sent(tag Tag) int64 {
	if int(tag) >= len(m.sent) {
		return 0
	}
	return m.sent[tag]
}

// TotalSent returns the total number of messages sent so far.
func (m *Metrics) TotalSent() int64 { return m.totalSent }

// MetricsSnapshot is an immutable copy of the counters, keyed by tag
// name — the external format consumed by sweep reports and tests. It is
// unchanged by the interning of tags on the wire: reports built from it
// are byte-identical to those of the string-tagged scheduler.
type MetricsSnapshot struct {
	Sent      map[string]int64
	Delivered map[string]int64
	Dropped   map[string]int64
	TotalSent int64
}

// Snapshot copies the current counters. Tags with a zero count are
// omitted from the respective map, as before. Same ownership contract
// as the other readers: call it with the run token or after Run.
func (m *Metrics) Snapshot() MetricsSnapshot {
	snap := MetricsSnapshot{
		Sent:      make(map[string]int64),
		Delivered: make(map[string]int64),
		Dropped:   make(map[string]int64),
		TotalSent: m.totalSent,
	}
	for tag, v := range m.sent {
		if v != 0 {
			snap.Sent[Tag(tag).String()] = v
		}
	}
	for tag, v := range m.delivered {
		if v != 0 {
			snap.Delivered[Tag(tag).String()] = v
		}
	}
	for tag, v := range m.dropped {
		if v != 0 {
			snap.Dropped[Tag(tag).String()] = v
		}
	}
	return snap
}

// Tags returns the message tags seen so far, sorted.
func (s MetricsSnapshot) Tags() []string {
	seen := make(map[string]bool, len(s.Sent))
	for tag := range s.Sent {
		seen[tag] = true
	}
	for tag := range s.Delivered {
		seen[tag] = true
	}
	tags := make([]string, 0, len(seen))
	for tag := range seen {
		tags = append(tags, tag)
	}
	sort.Strings(tags)
	return tags
}
