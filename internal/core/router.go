package core

import (
	"slices"
	"sync"

	"openmb/internal/packet"
	"openmb/internal/sbi"
)

// This file implements the sharded transaction router, which connects the
// reprocess events a source middlebox raises to the transaction that owns
// the state they touched. Each source connection has its own router
// (mbConn.router), so a routing key is the flow's packet.FlowID alone. It
// partitions the keys into N power-of-two shards by FlowID.Hash(), each with
// its own mutex, so an event route, chunk registration or put
// acknowledgment only ever takes one shard lock.
//
// The hash is symmetric — id and id.Reverse() hash equal — so both directions
// of a connection land in the same shard. That property is load-bearing: a
// middlebox may raise events keyed by either direction of a flow it exported
// under the canonical key, and a single shard lock must cover the whole
// conversation for the buffer-until-ACK ordering argument (§4.2.1) to stay a
// one-lock argument.

// maxOrphansPerKey bounds reprocess events held per unregistered key, so
// stragglers from completed transactions cannot accumulate.
const maxOrphansPerKey = 256

// keyState is a shard's record for one in-transaction flow key: the owning
// transaction, how many of its puts are unacknowledged, and the events
// buffered until those puts are ACKed. An orphan entry has no owner: its
// events (at most maxOrphansPerKey) beat the chunk that registers their key
// on the wire, and the registering transaction adopts them.
type keyState struct {
	owner    *txn
	pending  int
	buffered []*sbi.Event
	// flushing marks an in-progress ordered drain of buffered: the
	// draining goroutine releases the shard lock around each forward
	// batch, and events arriving meanwhile append to buffered (rather
	// than being forwarded directly), so the destination always sees
	// events for a key in arrival order.
	flushing bool
}

// routerShard owns one slice of a source's key space: a flat table of
// entries, and beside it the entry of packet.SharedID, the table's empty
// marker. Deletes that empty the table give its slots to routerSlots.
type routerShard struct {
	mu     sync.Mutex
	keys   packet.FlowTable[*keyState]
	shared *keyState
}

// entry returns id's entry, or nil.
func (sh *routerShard) entry(id packet.FlowID) *keyState {
	if id == packet.SharedID {
		return sh.shared
	}
	ks, _ := sh.keys.Get(id)
	return ks
}

// slot returns where id's entry lives, inserting a nil entry the caller must
// fill if there is none.
func (sh *routerShard) slot(id packet.FlowID) **keyState {
	if id == packet.SharedID {
		return &sh.shared
	}
	p, _ := sh.keys.Slot(id)
	return p
}

// routerSlots lends router shards the slots emptied tables gave back.
var routerSlots packet.SlotPool[*keyState]

// txnRouter shards one source's routing by FlowID.Hash(). Shard count is a
// power of two so the hash maps to a shard with a mask.
type txnRouter struct {
	shards []routerShard
	mask   uint64
}

func newTxnRouter(shards int) *txnRouter {
	r := &txnRouter{shards: make([]routerShard, shards), mask: uint64(shards - 1)}
	for i := range r.shards {
		r.shards[i].keys.Recycle(&routerSlots) // the first fill takes slots from it
	}
	return r
}

// mix64 is a splitmix-style avalanche finisher: FNV-family hashes of
// similar short inputs (names like "n0"/"n1") differ by small multiples of
// the prime. A node's registry salt finishes with it; FlowID.Hash carries
// its own.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}

func (r *txnRouter) shard(key packet.FlowID) *routerShard {
	return &r.shards[key.Hash()&r.mask]
}

// frameShardBuf sizes eachShard's on-stack scratch: frames up to this many
// keys (twice the benchmark's batch) are grouped without allocating.
const frameShardBuf = 64

// eachShard visits every key of one chunk frame with the key's shard locked,
// taking each shard's lock once per frame: keys that share a shard are
// visited in frame order under a single acquisition. visit may release and
// re-take sh.mu (the ordered drain does) but returns with it held, and never
// forwards under it: what it finds due is sent once eachShard has returned.
func (r *txnRouter) eachShard(keys []packet.FlowID, visit func(sh *routerShard, i int)) {
	var buf [frameShardBuf]*routerShard
	shards := buf[:0]
	if len(keys) > len(buf) {
		shards = make([]*routerShard, 0, len(keys))
	}
	for i := range keys {
		shards = append(shards, r.shard(keys[i]))
	}
	for i := range shards {
		sh := shards[i]
		if sh == nil {
			continue // visited with an earlier key of the same shard
		}
		sh.mu.Lock()
		for j := i; j < len(shards); j++ {
			if shards[j] == sh {
				shards[j] = nil
				visit(sh, j)
			}
		}
		sh.mu.Unlock()
	}
}

// keyFrame is one registered frame's copy of its keys and the slab its new
// key states come from, recycled once detach has removed them. Nothing
// points into it then: only the frame's transaction owns its slab entries
// (a takeover makes its own, an adopted orphan is in none), so detach
// removes all; an eviction to stale copies under the shard lock; and the
// ordered drain in ackFrame ends before the put worker, which detach waits.
type keyFrame struct {
	keys []packet.FlowID
	slab []keyState
}

var keyFrames = sync.Pool{New: func() any { return new(keyFrame) }}

// registerFrame records t as the owner of every key of one chunk frame on
// t.src, each with one more outstanding put, in one find-or-insert a key,
// adopting an orphan entry's events. Called from the source's read loop,
// before the frame is delivered to the move consumer, so event routing can
// never miss the registration. It returns the router's copy of keys, valid
// until t detaches.
func (r *txnRouter) registerFrame(t *txn, keys []packet.FlowID) []packet.FlowID {
	f := keyFrames.Get().(*keyFrame)
	f.keys = append(f.keys[:0], keys...)
	f.slab = slices.Grow(f.slab[:0], len(keys))[:len(keys)]
	keys, slab := f.keys, f.slab
	type eviction struct {
		dst *mbConn
		evs []*sbi.Event
	}
	var evicted []eviction
	r.eachShard(keys, func(sh *routerShard, i int) {
		p := sh.slot(keys[i])
		ks := *p
		if ks != nil && ks.owner == nil {
			// An orphan entry: its events beat this chunk.
			ks.owner = t
			t.ctrl.eventsBuffered.Add(uint64(len(ks.buffered)))
		} else if ks != nil && ks.owner != t {
			// A newer transaction claims a key an older one never
			// released (overlapping transactions from one source).
			// Hand the old owner its outstanding put count and buffer,
			// so its remaining ACKs still release its events toward its
			// own destination. If nothing is outstanding, the buffer is
			// due now, and goes out below, outside the shard locks.
			if evs := ks.owner.adoptStale(keys[i], ks); len(evs) > 0 {
				evicted = append(evicted, eviction{ks.owner.dst, evs})
			}
			ks = nil
		}
		if ks == nil {
			ks = &slab[i]
			ks.owner = t
			*p = ks
		}
		ks.pending++
	})
	for _, e := range evicted {
		forwardEvents(t.ctrl, e.dst, e.evs)
	}
	t.noteFrame(f)
	return keys
}

// ackFrame marks one put acknowledged for every key of a frame and, for each
// key with no puts left outstanding, drains the buffered events in order. If
// t no longer owns a key (a newer transaction claimed it), the ACK releases
// t's stale buffer instead.
func (r *txnRouter) ackFrame(t *txn, keys []packet.FlowID) {
	var stale []int
	r.eachShard(keys, func(sh *routerShard, i int) {
		ks := sh.entry(keys[i])
		if ks == nil || ks.owner != t {
			stale = append(stale, i)
			return
		}
		ks.pending--
		if ks.pending > 0 || ks.flushing || len(ks.buffered) == 0 {
			return
		}
		// Ordered drain: forward without the lock, but keep the key in
		// "flushing" state so concurrent events append behind the batch in
		// flight instead of overtaking it. Stop if a new registration raises
		// the pending count mid-drain.
		ks.flushing = true
		for ks.pending <= 0 && len(ks.buffered) > 0 {
			flush := ks.buffered
			ks.buffered = nil
			sh.mu.Unlock()
			forwardEvents(t.ctrl, t.dst, flush)
			sh.mu.Lock()
		}
		ks.flushing = false
	})
	for _, i := range stale {
		t.ackStale(keys[i])
	}
}

// route dispatches one reprocess event from the router's source: buffer
// while the key's puts are outstanding, forward (in order) otherwise, or hold
// in an orphan entry when the registering chunk has not arrived yet.
func (r *txnRouter) route(ev *sbi.Event) {
	// An event names its state by FlowKey, or the source's shared state,
	// which routes under packet.SharedID; a key no table can hold (a
	// non-IPv4 address) names no registered state and is dropped.
	id, ok := ev.Key.ID()
	if ev.Shared {
		id, ok = packet.SharedID, true
	}
	if !ok {
		return
	}
	sh := r.shard(id)
	sh.mu.Lock()
	ks := sh.entry(id)
	if ks == nil || ks.owner == nil {
		// A shared event is never held: its key registers before the get
		// that marks the state is sent, so no owner means none is coming,
		// and a later clone adopting the event would replay — double-count
		// — a packet its own snapshot holds.
		if ev.Kind == sbi.EventReprocess && !ev.Shared {
			if ks == nil {
				ks = &keyState{}
				*sh.slot(id) = ks
			}
			if len(ks.buffered) < maxOrphansPerKey {
				ks.buffered = append(ks.buffered, ev)
			}
		}
		sh.mu.Unlock()
		return
	}
	t := ks.owner
	t.touch()
	if ks.pending > 0 || len(ks.buffered) > 0 || ks.flushing {
		ks.buffered = append(ks.buffered, ev)
		t.ctrl.eventsBuffered.Add(1)
		sh.mu.Unlock()
		return
	}
	sh.mu.Unlock()
	forwardEvents(t.ctrl, t.dst, []*sbi.Event{ev})
}

// detach removes every routing entry t owns, touching only the shards its
// keys hash to, each in the one probe that finds it. When the source MB has
// no other live transactions, its orphan entries are discarded — stragglers
// from the finished transactions that nothing will ever adopt.
func (r *txnRouter) detach(t *txn) {
	owned := func(ks *keyState) bool { return ks.owner == t }
	for _, f := range t.takeFrames() {
		keys := f.keys
		r.eachShard(keys, func(sh *routerShard, i int) {
			if keys[i] != packet.SharedID {
				sh.keys.Remove(keys[i], owned)
				sh.keys.Recycle(&routerSlots)
			} else if sh.shared != nil && owned(sh.shared) {
				sh.shared = nil
			}
		})
		clear(f.slab)
		keyFrames.Put(f)
	}
	if t.src.liveTxns.Add(-1) == 0 {
		r.purgeOrphanMatch(packet.MatchAll)
	}
}

// purgeOrphanMatch discards the source's orphan entries whose key falls
// under m (either direction, matching the clear-marks semantics on the
// middlebox side). Move rollback uses it: orphans raised under an aborted
// transfer's match describe packets the restarted transfer's snapshot will
// already contain, so letting the restart adopt them would replay — and
// double-count — those packets at the destination.
func (r *txnRouter) purgeOrphanMatch(m packet.FieldMatch) {
	im := m.ForID()
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		for id, ks := range sh.keys.All() {
			if ks.owner == nil && im.MatchEither(id) {
				sh.keys.Remove(id, nil)
			}
		}
		sh.keys.Recycle(&routerSlots)
		sh.mu.Unlock()
	}
}

// forwardEvents sends reprocess events to dst in order — one frame per call
// (up to the destination's announced batch) rather than one frame per
// event, and one explicit flush for the whole forwarded batch rather than
// one flush decision per frame. Destinations that did not announce event
// batching in their hello get the per-event framing. The flush is inline on
// purpose: a drain blocking here against a slow destination is the router's
// ordered-drain backpressure, which eviction-during-drain correctness leans
// on. Never called with a shard lock held.
func forwardEvents(c *Controller, dst *mbConn, evs []*sbi.Event) {
	if len(evs) == 0 {
		return
	}
	c.eventsForwarded.Add(uint64(len(evs)))
	batch := dst.eventBatch
	if batch < 1 {
		batch = 1
	}
	// A frame that fails to encode ends the batch, but the frames before it
	// are already buffered: flush them whatever the framing returned.
	_ = sbi.FrameEvents(evs, batch, func(frame []*sbi.Event) error {
		m := &sbi.Message{Type: sbi.MsgRequest, Op: sbi.OpReprocess}
		m.SetEvents(frame)
		return dst.conn.SendDeferred(m)
	})
	_ = dst.conn.Flush()
}

// routeEvent dispatches an MB-raised event: introspection events go to the
// controller's subscribers; reprocess events go to the connection's sharded
// transaction router.
func (mb *mbConn) routeEvent(ev *sbi.Event) {
	if ev == nil {
		return
	}
	if ev.Kind == sbi.EventIntrospection {
		mb.ctrl.notifyIntrospection(mb.name, ev)
		return
	}
	mb.router.route(ev)
}

// notifyIntrospection fans one introspection event out to subscribers.
func (c *Controller) notifyIntrospection(mbName string, ev *sbi.Event) {
	c.introMu.Lock()
	subs := append([]func(string, *sbi.Event){}, c.introSubs...)
	c.introMu.Unlock()
	for _, fn := range subs {
		fn(mbName, ev)
	}
}
