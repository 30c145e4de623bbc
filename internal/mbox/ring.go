package mbox

import (
	"sync"

	"openmb/internal/packet"
)

// ingressItem is one queued unit of packet work: a live packet from the
// network or a replayed reprocess event (with the originating transaction's
// shared-state flag).
type ingressItem struct {
	p      *packet.Packet
	replay bool
	shared bool
}

// ingressRing is the runtime's packet queue: two fixed-capacity rings (live
// and replay) behind one mutex and one not-empty condition, replacing the
// seed's pair of buffered channels. It follows the netsim link-ring pattern:
// producers signal only on the empty->non-empty transition and the single
// worker pops whole batches per lock acquisition, so wakeups and
// synchronization amortize across packet bursts instead of costing one
// channel rendezvous per packet. Replay items are drained first — a
// reprocess event's packet is state another middlebox is waiting on.
//
// Pushes never block: like the seed's non-blocking channel sends, a full
// queue drops the packet (a loaded middlebox would too) and the caller
// keeps its borrow to release.
type ingressRing struct {
	mu       sync.Mutex
	notEmpty sync.Cond
	live     itemQueue
	replay   itemQueue
	closed   bool
}

// itemQueue is a fixed-capacity FIFO ring of ingress items.
type itemQueue struct {
	buf  []ingressItem
	head int
	n    int
}

func (q *itemQueue) push(it ingressItem) bool {
	if q.n == len(q.buf) {
		return false
	}
	// Wrap by comparison: a division per item is measurable at chain rates.
	i := q.head + q.n
	if i >= len(q.buf) {
		i -= len(q.buf)
	}
	q.buf[i] = it
	q.n++
	return true
}

// popInto appends up to cap(dst)-len(dst) items to dst and returns it.
func (q *itemQueue) popInto(dst []ingressItem) []ingressItem {
	for q.n > 0 && len(dst) < cap(dst) {
		dst = append(dst, q.buf[q.head])
		q.buf[q.head] = ingressItem{}
		if q.head++; q.head == len(q.buf) {
			q.head = 0
		}
		q.n--
	}
	return dst
}

func newIngressRing(capacity int) *ingressRing {
	r := &ingressRing{
		live:   itemQueue{buf: make([]ingressItem, capacity)},
		replay: itemQueue{buf: make([]ingressItem, capacity)},
	}
	r.notEmpty.L = &r.mu
	return r
}

// tryPushReplay enqueues a replayed reprocess packet, reporting false when
// the replay queue is full or the ring closed (the caller still owns the
// packet's borrow in that case).
func (r *ingressRing) tryPushReplay(p *packet.Packet, shared bool) bool {
	r.mu.Lock()
	wasEmpty := r.live.n+r.replay.n == 0
	ok := !r.closed && r.replay.push(ingressItem{p: p, replay: true, shared: shared})
	r.mu.Unlock()
	if ok && wasEmpty {
		r.notEmpty.Signal()
	}
	return ok
}

// tryPushBurst enqueues live items for ps in order under a single lock
// acquisition and at most one wakeup. It returns the number of trailing
// packets that did NOT fit (queue full or ring closed); the caller still owns
// those borrows. Accepted packets keep FIFO order. A non-nil pushed runs with
// the accepted count before the ring unlocks, so whatever it records precedes
// anything the worker records after popping the items.
func (r *ingressRing) tryPushBurst(ps []*packet.Packet, pushed func(accepted int)) int {
	r.mu.Lock()
	wasEmpty := r.live.n+r.replay.n == 0
	accepted := 0
	for _, p := range ps {
		if r.closed || !r.live.push(ingressItem{p: p}) {
			break
		}
		accepted++
	}
	if pushed != nil {
		pushed(accepted)
	}
	r.mu.Unlock()
	if wasEmpty && accepted > 0 {
		r.notEmpty.Signal()
	}
	return len(ps) - accepted
}

// popBatch fills dst (up to its capacity) with queued items, blocking while
// the ring is empty. It returns an empty slice only when the ring is closed
// and drained; after close it keeps returning the backlog so the worker can
// dispose of every queued borrow.
func (r *ingressRing) popBatch(dst []ingressItem) []ingressItem {
	dst = dst[:0]
	r.mu.Lock()
	for r.live.n+r.replay.n == 0 && !r.closed {
		r.notEmpty.Wait()
	}
	dst = r.replay.popInto(dst)
	dst = r.live.popInto(dst)
	r.mu.Unlock()
	return dst
}

// stats returns the live and replay queue depths and the per-queue capacity
// in one consistent view (both depths under the same lock acquisition, so a
// sampler can never see a packet counted in neither or both queues
// mid-transfer).
func (r *ingressRing) stats() (live, replay, capacity int) {
	r.mu.Lock()
	live, replay, capacity = r.live.n, r.replay.n, len(r.live.buf)
	r.mu.Unlock()
	return live, replay, capacity
}

// close marks the ring closed and wakes the worker. Queued items remain for
// the worker to drain.
func (r *ingressRing) close() {
	r.mu.Lock()
	r.closed = true
	r.mu.Unlock()
	r.notEmpty.Broadcast()
}
