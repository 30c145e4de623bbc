package core

import (
	"sync"
	"sync/atomic"
	"time"

	"openmb/internal/packet"
	"openmb/internal/sbi"
)

// txn tracks one move/clone/merge transaction. Per-flow routing state
// (outstanding puts and buffered events per key) lives in the controller's
// sharded router; the txn itself holds only what is inherently per
// transaction — the endpoints, the activity clock the completer watches,
// the keys it registered (so detach touches exactly the shards it
// used), and the shared-state transfer bookkeeping.
type txn struct {
	ctrl *Controller
	src  *mbConn
	dst  *mbConn

	// id is the transaction ID the registry assigned (wire-visible:
	// exported handoffs carry it in sbi.Handoff.Txns). Immutable after
	// newTxn.
	id uint64

	// lastEvent is the unix-nano time the source last raised an event for
	// this transaction; the completer reads it to detect quiescence.
	lastEvent atomic.Int64

	mu sync.Mutex
	// frames are the key slices registered with the router, one per chunk
	// frame, for detach.
	frames [][]packet.FlowID
	// stale holds put counts and buffered events for keys this
	// transaction lost to a newer one (overlapping moves); its remaining
	// ACKs release them toward its own destination.
	stale map[packet.FlowID]*staleKey
	// sharedPending counts unacknowledged shared puts; sharedBuffered
	// holds shared-state events meanwhile, and sharedFlushing marks an
	// ordered drain in progress (see keyState.flushing).
	sharedPending  int
	sharedBuffered []*sbi.Event
	sharedFlushing bool
	detached       bool
}

// staleKey is the outstanding state for a key whose routing entry a newer
// transaction took over.
type staleKey struct {
	pending  int
	buffered []*sbi.Event
}

func newTxn(c *Controller, src, dst *mbConn) *txn {
	t := &txn{ctrl: c, src: src, dst: dst}
	t.touch()
	c.registry.add(t)
	src.liveTxns.Add(1)
	return t
}

// touch records source activity, pushing quiescence out.
func (t *txn) touch() { t.lastEvent.Store(time.Now().UnixNano()) }

// quietAt returns the earliest unix-nano instant the transaction can
// complete if no further events arrive.
func (t *txn) quietAt(d time.Duration) int64 { return t.lastEvent.Load() + int64(d) }

// registerFrame attaches the txn to the router for every key of one chunk
// frame and adopts any orphaned events that raced ahead of it. Called from
// the source's read loop, before the frame is delivered to the move consumer,
// so event routing can never miss the registration. keys belongs to the
// transaction afterwards.
func (t *txn) registerFrame(keys []packet.FlowID) { t.ctrl.router.registerFrame(t, keys) }

// ackFrame marks one put acknowledged for every key of a frame; see
// txnRouter.ackFrame.
func (t *txn) ackFrame(keys []packet.FlowID) { t.ctrl.router.ackFrame(t, keys) }

// noteFrame remembers a registered frame's keys for detach.
func (t *txn) noteFrame(keys []packet.FlowID) {
	t.mu.Lock()
	t.frames = append(t.frames, keys)
	t.mu.Unlock()
}

// takeFrames returns and clears the registered-key list.
func (t *txn) takeFrames() [][]packet.FlowID {
	t.mu.Lock()
	defer t.mu.Unlock()
	frames := t.frames
	t.frames = nil
	return frames
}

// adoptStale takes over the outstanding put count and buffered events of a
// routing entry this transaction just lost to a newer one. Called with the
// key's shard lock held (lock order is always shard -> txn, never the
// reverse); ks belongs to the caller after this returns. If nothing remains
// outstanding, the buffer is returned for the caller to forward once the
// shard lock is released.
func (t *txn) adoptStale(key packet.FlowID, ks *keyState) []*sbi.Event {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.stale[key]
	if s == nil {
		s = &staleKey{}
		if t.stale == nil {
			t.stale = map[packet.FlowID]*staleKey{}
		}
		t.stale[key] = s
	}
	s.pending += ks.pending
	ks.pending = 0
	if ks.flushing {
		// An ordered drain is mid-flight on this key (it re-reads
		// ks.buffered under the shard lock per batch). Nothing here
		// may forward concurrently with it.
		if s.pending > 0 {
			// Puts went outstanding again mid-drain (the old owner
			// re-registered the key): the buffered events must wait
			// for those ACKs, so take the buffer away from the
			// drain — it exits on its next lock acquisition — and
			// let ackStale release it. Residual imprecision: if an
			// ACK lands while the drain's last batch is still in
			// flight, the stale flush can interleave with that
			// batch's tail; the seed had this window on every
			// flush, here it needs a double eviction race.
			s.buffered = append(s.buffered, ks.buffered...)
			ks.buffered = nil
			return nil
		}
		// Nothing outstanding: leave the buffer with the drain, which
		// delivers the remainder in order itself (prepending earlier
		// stale leftovers so they go out first).
		if len(s.buffered) > 0 {
			ks.buffered = append(s.buffered, ks.buffered...)
		}
		delete(t.stale, key)
		return nil
	}
	s.buffered = append(s.buffered, ks.buffered...)
	ks.buffered = nil
	if s.pending > 0 {
		return nil
	}
	due := s.buffered
	delete(t.stale, key)
	return due
}

// ackStale releases one stale put for key; the last one flushes the
// remaining buffer toward this transaction's destination.
func (t *txn) ackStale(key packet.FlowID) {
	t.mu.Lock()
	s := t.stale[key]
	if s == nil {
		t.mu.Unlock()
		return
	}
	s.pending--
	var flush []*sbi.Event
	if s.pending <= 0 {
		flush = s.buffered
		delete(t.stale, key)
	}
	t.mu.Unlock()
	forwardEvents(t.ctrl, t.dst, flush)
}

// registerShared claims the source's shared state for this transaction and
// counts one more outstanding shared put. sharedTxn is a per-MB atomic
// pointer rather than router state: at most one clone/merge owns a source's
// shared state at a time.
func (t *txn) registerShared() {
	t.src.sharedTxn.Store(t)
	t.mu.Lock()
	t.sharedPending++
	t.mu.Unlock()
}

// ackSharedPut marks one shared put acknowledged; the last outstanding one
// drains buffered shared-state events in order (same flushing discipline as
// txnRouter.ackFrame).
func (t *txn) ackSharedPut() {
	t.mu.Lock()
	t.sharedPending--
	if t.sharedPending > 0 || t.sharedFlushing || len(t.sharedBuffered) == 0 {
		t.mu.Unlock()
		return
	}
	t.sharedFlushing = true
	for t.sharedPending <= 0 && len(t.sharedBuffered) > 0 {
		flush := t.sharedBuffered
		t.sharedBuffered = nil
		t.mu.Unlock()
		forwardEvents(t.ctrl, t.dst, flush)
		t.mu.Lock()
	}
	t.sharedFlushing = false
	t.mu.Unlock()
}

// handleSharedEvent buffers one shared-state reprocess event while the
// shared put is outstanding (or a drain is in flight), and forwards it
// otherwise.
func (t *txn) handleSharedEvent(ev *sbi.Event) {
	t.touch()
	t.mu.Lock()
	if t.sharedPending > 0 || len(t.sharedBuffered) > 0 || t.sharedFlushing {
		t.sharedBuffered = append(t.sharedBuffered, ev)
		t.ctrl.eventsBuffered.Add(1)
		t.mu.Unlock()
		return
	}
	t.mu.Unlock()
	forwardEvents(t.ctrl, t.dst, []*sbi.Event{ev})
}

// detach removes the txn from its controller's routing tables. Idempotent.
func (t *txn) detach() {
	t.mu.Lock()
	if t.detached {
		t.mu.Unlock()
		return
	}
	t.detached = true
	t.mu.Unlock()
	t.ctrl.registry.remove(t)
	t.ctrl.router.detach(t)
}
