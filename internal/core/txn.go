package core

import (
	"sync"
	"sync/atomic"
	"time"

	"openmb/internal/packet"
	"openmb/internal/sbi"
)

// txn tracks one move, clone or merge transaction. Its routing state
// (outstanding puts and buffered events per key, shared state under
// packet.SharedID) lives in the controller's sharded router; the txn itself
// holds only what is inherently per transaction — the endpoints, the
// activity clock its completion timer watches, the keys it registered (so
// detach touches exactly the shards it used), and the stale state of keys a
// newer transaction took over.
type txn struct {
	ctrl *Controller
	src  *mbConn
	dst  *mbConn

	// id is the transaction ID the registry assigned, unique across the
	// cluster's nodes. Immutable after newTxn.
	id uint64

	// lastEvent is the unix-nano time the source last raised an event for
	// this transaction; its completion timer reads it to detect quiescence.
	lastEvent atomic.Int64

	mu sync.Mutex
	// frames are the key slices registered with the router, one per chunk
	// frame, for detach.
	frames [][]packet.FlowID
	// stale holds put counts and buffered events for keys this
	// transaction lost to a newer one (overlapping transactions); its
	// remaining ACKs release them toward its own destination.
	stale    map[packet.FlowID]*staleKey
	detached bool
	// timer runs finish once the source has gone quiet (armQuiet);
	// flushed is set by Controller.Close, after which finish runs at once.
	timer   *time.Timer
	finish  func()
	flushed bool
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

// untilQuiet returns how long until the source will have raised no events
// for the controller's quiet period; zero or less means it already has.
func (t *txn) untilQuiet() time.Duration {
	return time.Duration(t.lastEvent.Load() + int64(t.ctrl.opts.QuietPeriod) - time.Now().UnixNano())
}

// armQuiet arranges for finish to run once, on a timer goroutine, when the
// source has been quiet for the controller's period. The first check is due
// at lastEvent + QuietPeriod, which for a transaction that saw no events is
// already past. A transaction the controller's Close has flushed finishes at
// once.
func (t *txn) armQuiet(finish func()) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.finish = finish
	if t.flushed || t.ctrl.closed.Load() {
		go finish()
		return
	}
	t.timer = time.AfterFunc(t.untilQuiet(), t.checkQuiet)
}

// checkQuiet runs when the timer fires. Quiet means no events for the period
// AND the source's event pipeline drained: events the read loop accepted but
// the router has not routed will touch the clock when they route, and
// finishing past them would clear source marks early and orphan their
// replays, so it checks again a fifth of a period later. The pipeline check
// runs FIRST: if it reads empty at some instant, every routed event's touch
// happened before that instant and is visible to the lastEvent read that
// follows; the reverse order races a router draining its backlog between the
// two loads and reports quiet right after a burst. Events that pushed the
// deadline out re-arm the timer to the new deadline.
func (t *txn) checkQuiet() {
	wait := t.ctrl.opts.QuietPeriod / 5
	if t.src.eventsInFlight() == 0 {
		wait = t.untilQuiet()
	}
	t.mu.Lock()
	if wait > 0 && !t.flushed {
		t.timer.Reset(wait)
		t.mu.Unlock()
		return
	}
	finish := t.finish
	t.mu.Unlock()
	finish()
}

// flush is Controller.Close's end for a live transaction: an armed finish
// whose timer it stops runs at once, and one armed later runs as soon as it
// is armed. A timer it cannot stop has already fired, and its check finishes
// instead of re-arming.
func (t *txn) flush() {
	t.mu.Lock()
	t.flushed = true
	stopped := t.timer != nil && t.timer.Stop()
	finish := t.finish
	t.mu.Unlock()
	if stopped {
		go finish()
	}
}

// registerFrame attaches the txn to the router for every key of one chunk
// frame (or the shared pair's packet.SharedID) and adopts any orphaned events
// that raced ahead of it. Called from the source's read loop before a chunk
// frame is delivered to its consumer, or before a shared get is sent, so
// event routing can never miss the registration. keys belongs to the
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

// detach drops the txn's routing, then untracks it, so a WaitTxns that sees
// the registry empty also sees every router table released. Idempotent.
func (t *txn) detach() {
	t.mu.Lock()
	if t.detached {
		t.mu.Unlock()
		return
	}
	t.detached = true
	t.mu.Unlock()
	t.ctrl.router.detach(t)
	t.ctrl.registry.remove(t)
}
