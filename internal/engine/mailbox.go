package engine

import "sync"

// mailbox is one worker's bounded ingress: a ring of QueueDepth jobs under
// one mutex, filled and emptied in bulk so a burst costs one lock on each
// side however many packets it carries. Producers (the dispatcher's bursts,
// the control jobs of settle and Reconfigure) block while it is full, the
// one consumer while it is empty. Jobs leave in the order they entered.
//
// A producer that finds the consumer parked on an empty ring may borrow it
// instead of queueing (borrow, giveBack): it runs its jobs on its own
// goroutine with the consumer's state, and pull keeps the consumer parked
// until the borrower gives it back, so jobs queued meanwhile run after the
// borrowed ones and the consumer's state never has two goroutines.
type mailbox struct {
	mu       sync.Mutex
	notEmpty sync.Cond // the consumer parks here
	notFull  sync.Cond // producers park here
	idle     sync.Cond // a borrower waiting for the consumer to park waits here
	ring     []job
	head, n  int
	done     bool
	// parked: the consumer waits in pull. borrowed: a producer runs the
	// consumer's work.
	parked, borrowed bool
}

func newMailbox(depth int) *mailbox {
	m := &mailbox{ring: make([]job, depth)}
	m.notEmpty.L, m.notFull.L, m.idle.L = &m.mu, &m.mu, &m.mu
	return m
}

// push queues jobs in order, blocking while the ring is full; a burst larger
// than the free space (or the ring) goes in piecewise as the consumer makes
// room. It reports false, dropping what is left, once the mailbox is closed.
func (m *mailbox) push(jobs []job) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for len(jobs) > 0 {
		for m.n == len(m.ring) && !m.done {
			m.notFull.Wait()
		}
		if m.done {
			return false
		}
		k := min(len(jobs), len(m.ring)-m.n)
		tail := (m.head + m.n) % len(m.ring)
		c := copy(m.ring[tail:], jobs[:k])
		copy(m.ring, jobs[c:k])
		if m.n == 0 {
			m.notEmpty.Signal()
		}
		m.n += k
		jobs = jobs[k:]
	}
	return true
}

// borrow lends the consumer to the caller if it is parked on an empty,
// open ring and nobody has borrowed it yet: the caller then runs the jobs
// it would have pushed and must call giveBack. With wait set it waits for
// that, while the consumer runs what is queued, and fails only once the
// mailbox is closed.
func (m *mailbox) borrow(wait bool) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	for !m.parked || m.borrowed || m.n > 0 || m.done {
		if !wait || m.done {
			return false
		}
		m.idle.Wait()
	}
	m.borrowed = true
	return true
}

// giveBack ends a borrow, waking the consumer if jobs or a close arrived
// while it was lent, and otherwise a borrower waiting for it.
func (m *mailbox) giveBack() {
	m.mu.Lock()
	m.borrowed = false
	wake := m.n > 0 || m.done
	m.mu.Unlock()
	if wake {
		m.notEmpty.Signal()
	} else {
		m.idle.Signal()
	}
}

// pull blocks while the ring is empty or the consumer is borrowed, then
// appends everything queued to dst and returns it, leaving the ring empty.
// ok is false once the mailbox is closed and drained: a close never loses a
// job that push accepted.
func (m *mailbox) pull(dst []job) (batch []job, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for m.n == 0 && !m.done || m.borrowed {
		m.parked = true
		m.idle.Signal()
		m.notEmpty.Wait()
		m.parked = false
	}
	k := m.n
	if k == len(m.ring) {
		m.notFull.Broadcast()
	}
	a := m.ring[m.head:min(m.head+k, len(m.ring))]
	b := m.ring[:k-len(a)]
	dst = append(append(dst, a...), b...)
	clear(a) // drop the packet and closure references
	clear(b)
	m.head = (m.head + k) % len(m.ring)
	m.n -= k
	return dst, k > 0
}

// close ends the mailbox, for Stop and for the abort of a cancelled or
// failed run alike: blocked producers are released with false, and the
// consumer drains what was accepted, then leaves.
func (m *mailbox) close() {
	m.mu.Lock()
	m.done = true
	m.mu.Unlock()
	m.notEmpty.Broadcast()
	m.notFull.Broadcast()
	m.idle.Broadcast()
}
