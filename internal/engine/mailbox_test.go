package engine

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// eventually polls cond until it holds; the mailbox has no event to wait on
// for "a producer is parked", so tests wait for the state that implies it.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting until %s", what)
		}
	}
}

func (m *mailbox) queued() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.n
}

// seqJobs builds n jobs tagged producer (tNs) and position (seq).
func seqJobs(producer int64, from, n int) []job {
	out := make([]job, n)
	for i := range out {
		out[i] = job{tNs: producer, seq: int64(from + i)}
	}
	return out
}

// checkLeaks fails the test if goroutines outlive it.
func checkLeaks(t *testing.T) {
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		eventually(t, "the test's goroutines have exited", func() bool { return runtime.NumGoroutine() <= before })
	})
}

// TestMailboxFIFOAcrossProducers: one bulk producer and two single-job
// producers share a ring much smaller than the traffic; every job arrives
// exactly once and each producer's jobs arrive in the order it pushed them.
func TestMailboxFIFOAcrossProducers(t *testing.T) {
	checkLeaks(t)
	const perProducer = 3200
	m := newMailbox(16)
	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		for i := 0; i < perProducer; i += 32 {
			if !m.push(seqJobs(0, i, 32)) {
				t.Error("bulk push refused")
			}
		}
	}()
	for p := int64(1); p <= 2; p++ {
		go func(p int64) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				if !m.push(seqJobs(p, i, 1)) {
					t.Error("single push refused")
				}
			}
		}(p)
	}
	go func() { wg.Wait(); m.close() }()

	var next [3]int64
	var batch []job
	for {
		var ok bool
		batch, ok = m.pull(batch[:0])
		if !ok {
			break
		}
		if len(batch) > len(m.ring) {
			t.Fatalf("pull returned %d jobs from a ring of %d", len(batch), len(m.ring))
		}
		for _, j := range batch {
			if j.seq != next[j.tNs] {
				t.Fatalf("producer %d: got job %d, want %d", j.tNs, j.seq, next[j.tNs])
			}
			next[j.tNs]++
		}
	}
	for p, n := range next {
		if n != perProducer {
			t.Errorf("producer %d: %d of %d jobs arrived", p, n, perProducer)
		}
	}
}

// TestMailboxOversizedPush: a push larger than the free space — and than
// the whole ring — blocks, goes in piecewise as the consumer makes room,
// and arrives in order behind what was already queued.
func TestMailboxOversizedPush(t *testing.T) {
	checkLeaks(t)
	m := newMailbox(8)
	m.push(seqJobs(0, 0, 3))
	pushed := make(chan bool)
	go func() { pushed <- m.push(seqJobs(0, 3, 20)) }()
	eventually(t, "the ring is full", func() bool { return m.queued() == 8 })
	select {
	case <-pushed:
		t.Fatal("a 20-job push into 5 free slots returned before the consumer made room")
	default:
	}
	var got []job
	for len(got) < 23 {
		before := len(got)
		got, _ = m.pull(got)
		if n := len(got) - before; n < 1 || n > 8 {
			t.Fatalf("pull from a ring of 8 returned %d jobs", n)
		}
	}
	if !<-pushed {
		t.Error("oversized push reported failure")
	}
	for i, j := range got {
		if j.seq != int64(i) {
			t.Fatalf("position %d holds job %d", i, j.seq)
		}
	}
}

// TestMailboxPullBounds: pull takes everything queued, across the ring's
// wrap, leaves the ring empty, and appends to dst.
func TestMailboxPullBounds(t *testing.T) {
	m := newMailbox(16)
	m.push(seqJobs(1, 0, 6))
	batch, ok := m.pull(nil)
	if len(batch) != 6 || m.queued() != 0 || !ok {
		t.Fatalf("pull of 6 = %d jobs, %d left, ok %v; want 6, 0, true", len(batch), m.queued(), ok)
	}
	m.push(seqJobs(1, 6, 13)) // wraps: 13 queued from head 6
	batch, ok = m.pull(batch)
	if len(batch) != 19 || m.queued() != 0 || !ok {
		t.Fatalf("pull of 13 onto 6 = %d jobs, %d left, ok %v; want 19, 0, true", len(batch), m.queued(), ok)
	}
	for i, j := range batch {
		if j.seq != int64(i) {
			t.Fatalf("position %d holds job %d", i, j.seq)
		}
	}
	for i, j := range m.ring {
		if j.tNs != 0 {
			t.Errorf("ring slot %d still holds a pulled job", i)
		}
	}
}

// TestMailboxCloseDrains: after close the consumer still receives what was
// accepted, then ok == false; producers are refused.
func TestMailboxCloseDrains(t *testing.T) {
	m := newMailbox(8)
	m.push(seqJobs(0, 0, 5))
	m.close()
	if m.push(seqJobs(0, 5, 1)) {
		t.Error("push accepted after close")
	}
	batch, ok := m.pull(nil)
	if len(batch) != 5 || !ok {
		t.Fatalf("first pull after close = %d jobs, ok %v; want 5, true", len(batch), ok)
	}
	if batch, ok = m.pull(batch[:0]); len(batch) != 0 || ok {
		t.Fatalf("pull of a closed, drained mailbox = %d jobs, ok %v; want 0, false", len(batch), ok)
	}
}

// TestMailboxCloseReleasesBlocked is the abort path: close releases a
// producer parked on a full ring and a consumer parked on an empty one.
func TestMailboxCloseReleasesBlocked(t *testing.T) {
	checkLeaks(t)
	full, empty := newMailbox(4), newMailbox(4)
	pushed := make(chan bool)
	pulled := make(chan bool)
	go func() { pushed <- full.push(seqJobs(0, 0, 6)) }()
	go func() {
		_, ok := empty.pull(nil)
		pulled <- ok
	}()
	eventually(t, "the ring is full", func() bool { return full.queued() == 4 })
	select {
	case <-pushed:
		t.Fatal("push of 6 into a ring of 4 returned with nobody pulling")
	case <-pulled:
		t.Fatal("pull of an empty mailbox returned with nobody pushing")
	default:
	}
	full.close()
	empty.close()
	if <-pushed {
		t.Error("the released producer reported success")
	}
	if <-pulled {
		t.Error("the released consumer reported a batch")
	}
	// What the ring accepted before the close is still delivered.
	if batch, ok := full.pull(nil); len(batch) != 4 || !ok {
		t.Errorf("closed ring drained %d jobs, ok %v; want 4, true", len(batch), ok)
	}
}

func (m *mailbox) consumerParked() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.parked
}

// TestMailboxBorrow: a producer may borrow the consumer only while it is
// parked on an empty, open ring and lent to nobody else; jobs pushed and a
// close made while it is lent wait for giveBack, then arrive in order.
func TestMailboxBorrow(t *testing.T) {
	checkLeaks(t)
	m := newMailbox(4)
	if m.borrow(false) {
		t.Fatal("borrowed a consumer that is not pulling")
	}
	pulled := make(chan []job)
	go func() {
		for {
			batch, ok := m.pull(nil)
			if !ok {
				close(pulled)
				return
			}
			pulled <- batch
		}
	}()
	eventually(t, "the consumer parks", m.consumerParked)
	if !m.borrow(false) {
		t.Fatal("could not borrow a parked consumer")
	}
	if m.borrow(false) {
		t.Fatal("borrowed a consumer twice")
	}
	m.push(seqJobs(0, 0, 2))
	// There is no event for "still parked": give a consumer woken in
	// error the time to return.
	time.Sleep(10 * time.Millisecond)
	select {
	case <-pulled:
		t.Fatal("the consumer pulled while it was borrowed")
	default:
	}
	m.giveBack()
	if batch := <-pulled; len(batch) != 2 || batch[0].seq != 0 || batch[1].seq != 1 {
		t.Fatalf("after giveBack the consumer pulled %v, want seqs 0 and 1", batch)
	}

	eventually(t, "the consumer parks again", m.consumerParked)
	m.push(seqJobs(0, 2, 1))
	if m.borrow(false) {
		t.Error("borrowed a consumer with a job queued")
	}
	if batch := <-pulled; len(batch) != 1 || batch[0].seq != 2 {
		t.Fatalf("pulled %v, want seq 2", batch)
	}

	eventually(t, "the consumer parks again", m.consumerParked)
	if !m.borrow(false) {
		t.Fatal("could not borrow a parked consumer")
	}
	m.close()
	time.Sleep(10 * time.Millisecond)
	select {
	case <-pulled:
		t.Fatal("the consumer left while it was borrowed")
	default:
	}
	m.giveBack()
	if _, ok := <-pulled; ok {
		t.Fatal("the consumer pulled a batch from a closed, empty mailbox")
	}
	if m.borrow(false) {
		t.Error("borrowed the consumer of a closed mailbox")
	}
}
