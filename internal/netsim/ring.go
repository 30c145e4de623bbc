package netsim

import (
	"sync"

	"openmb/internal/packet"
)

// pktRing is the link queue: a fixed-capacity ring of packet pointers with
// blocking push and batched pop. It hands the consumer whole batches per
// lock acquisition, so a busy link pays one synchronization per batch rather
// than one per packet — the hand-off cost mmb-style userspace data planes
// optimize away. Multiple producers (every upstream pump that forwards into
// this link) may push concurrently; the link's single pump goroutine is the
// only consumer.
type pktRing struct {
	mu       sync.Mutex
	notEmpty sync.Cond
	notFull  sync.Cond
	buf      []*packet.Packet
	head     int // index of the oldest element
	n        int // number of queued elements
	closed   bool
}

func newPktRing(capacity int) *pktRing {
	r := &pktRing{buf: make([]*packet.Packet, capacity)}
	r.notEmpty.L = &r.mu
	r.notFull.L = &r.mu
	return r
}

// pushBatch enqueues all of ps in order, blocking while the ring is full,
// and pays one lock acquisition and one wakeup per chunk that fits instead
// of one per packet. It returns the number of trailing packets not enqueued
// because the ring closed (the caller still owns those references).
func (r *pktRing) pushBatch(ps []*packet.Packet) int {
	pushed := 0
	r.mu.Lock()
	for pushed < len(ps) {
		for r.n == len(r.buf) && !r.closed {
			r.notFull.Wait()
		}
		if r.closed {
			r.mu.Unlock()
			return len(ps) - pushed
		}
		wasEmpty := r.n == 0
		for pushed < len(ps) && r.n < len(r.buf) {
			r.buf[(r.head+r.n)%len(r.buf)] = ps[pushed]
			r.n++
			pushed++
		}
		if wasEmpty {
			r.notEmpty.Signal()
		}
	}
	r.mu.Unlock()
	return 0
}

// popBatch dequeues up to len(dst) packets into dst, blocking while the ring
// is empty, and reports whether the ring has closed (the batch is then to be
// released, not delivered). It returns 0 only when the ring is closed and
// drained.
func (r *pktRing) popBatch(dst []*packet.Packet) (int, bool) {
	r.mu.Lock()
	for r.n == 0 && !r.closed {
		r.notEmpty.Wait()
	}
	k := r.n
	if k > len(dst) {
		k = len(dst)
	}
	for i := 0; i < k; i++ {
		dst[i] = r.buf[r.head]
		r.buf[r.head] = nil
		r.head = (r.head + 1) % len(r.buf)
	}
	r.n -= k
	if k > 0 {
		r.notFull.Broadcast()
	}
	closed := r.closed
	r.mu.Unlock()
	return k, closed
}

// close marks the ring closed and wakes all waiters. Queued packets remain
// for the consumer to drain.
func (r *pktRing) close() {
	r.mu.Lock()
	r.closed = true
	r.notEmpty.Broadcast()
	r.notFull.Broadcast()
	r.mu.Unlock()
}
