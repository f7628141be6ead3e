// Package runtoken_neg holds plain run-token-owned state: no locks,
// no atomics, no goroutines. The rule polices exactly those three, so
// a channel operation stays quiet.
package runtoken_neg

// Sched is run-token state accessed without synchronization.
type Sched struct {
	queue []int
	yield chan struct{}
}

// Push appends under token ownership.
func (s *Sched) Push(v int) {
	s.queue = append(s.queue, v)
}

// Handoff passes the token over a channel.
func (s *Sched) Handoff() {
	s.yield <- struct{}{}
}
