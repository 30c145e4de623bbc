package core

import (
	"fmt"
	"sync"

	"openmb/internal/packet"
	"openmb/internal/sbi"
)

// This file implements the sharded transaction router: the controller-global
// structure that connects reprocess events raised by a source middlebox to
// the transaction that owns the state they touched. The seed kept this state
// as two maps behind a single per-MB mutex; every event route, chunk
// registration, and put acknowledgment serialized on it. The router
// partitions the key space into N power-of-two shards by FlowID.Hash(),
// each with its own mutex, so those operations only ever take one shard lock.
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

// routeKey names one flow key on one source middlebox. Routing state is
// controller-global, so entries are qualified by the source connection:
// different MBs routinely hold state for identical flow keys (e.g. replicas
// fed the same trace). Keys enter as FlowKeys on chunks and events and are
// held here as IDs: the connection is the entry's only pointer
// (TestTableKeysAreCompact).
type routeKey struct {
	mb  *mbConn
	key packet.FlowID
}

// keyState is a shard's record for one in-transaction flow key: the owning
// transaction, how many of its puts are unacknowledged, and the events
// buffered until those puts are ACKed.
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

// routerShard owns one slice of the key space. Its tables are nil while
// both are empty: Go maps never shrink, so kept tables would stay the size
// of the largest move ever made.
type routerShard struct {
	mu   sync.Mutex
	keys map[routeKey]*keyState
	// orphans holds reprocess events that arrived before the chunk that
	// registers their key: a packet processed between a chunk's snapshot
	// and the chunk's transmission puts its event ahead of the chunk on
	// the wire. The registering transaction adopts them.
	orphans map[routeKey][]*sbi.Event
}

// alloc readies the tables for an insert; release drops them once the
// caller's deletes have emptied both.
func (sh *routerShard) alloc() {
	if sh.keys == nil {
		sh.keys, sh.orphans = map[routeKey]*keyState{}, map[routeKey][]*sbi.Event{}
	}
}

func (sh *routerShard) release() {
	if len(sh.keys)+len(sh.orphans) == 0 {
		sh.keys, sh.orphans = nil, nil
	}
}

// txnRouter shards transaction routing by FlowID.Hash(). Shard count is
// a power of two so the hash maps to a shard with a mask.
type txnRouter struct {
	shards []routerShard
	mask   uint64
}

func newTxnRouter(shards int) *txnRouter {
	return &txnRouter{shards: make([]routerShard, shards), mask: uint64(shards - 1)}
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

// registerFrame records t as the owner of every key of one chunk frame on
// t.src, each with one more outstanding put, and adopts any orphaned events
// that raced ahead of their chunk. Called from the source's read loop, before
// the frame is delivered to the move consumer, so event routing can never
// miss the registration. The frame's key states come from one slab, and keys
// is retained for detach: the caller must not modify it afterwards.
func (r *txnRouter) registerFrame(t *txn, keys []packet.FlowID) {
	slab := make([]keyState, len(keys))
	type eviction struct {
		dst *mbConn
		evs []*sbi.Event
	}
	var evicted []eviction
	r.eachShard(keys, func(sh *routerShard, i int) {
		rk := routeKey{mb: t.src, key: keys[i]}
		ks := sh.keys[rk]
		if ks == nil || ks.owner != t {
			if ks != nil {
				// A newer transaction claims a key an older one never
				// released (overlapping moves from the same source).
				// Hand the old owner its outstanding put count and
				// buffer, so its remaining ACKs still release its
				// events toward its own destination. If nothing is
				// outstanding, the buffer is due now, and goes out
				// below, outside the shard locks.
				if evs := ks.owner.adoptStale(keys[i], ks); len(evs) > 0 {
					evicted = append(evicted, eviction{ks.owner.dst, evs})
				}
			}
			ks = &slab[i]
			ks.owner = t
			sh.alloc()
			sh.keys[rk] = ks
		}
		ks.pending++
		if adopted := sh.orphans[rk]; len(adopted) > 0 {
			delete(sh.orphans, rk)
			ks.buffered = append(ks.buffered, adopted...)
			t.ctrl.eventsBuffered.Add(uint64(len(adopted)))
		}
	})
	for _, e := range evicted {
		forwardEvents(t.ctrl, e.dst, e.evs)
	}
	t.noteFrame(keys)
}

// ackFrame marks one put acknowledged for every key of a frame and, for each
// key with no puts left outstanding, drains the buffered events in order. If
// t no longer owns a key (a newer transaction claimed it), the ACK releases
// t's stale buffer instead.
func (r *txnRouter) ackFrame(t *txn, keys []packet.FlowID) {
	var stale []int
	r.eachShard(keys, func(sh *routerShard, i int) {
		ks := sh.keys[routeKey{mb: t.src, key: keys[i]}]
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

// route dispatches one reprocess event from src: buffer while the key's puts
// are outstanding, forward (in order) otherwise, or hold as an orphan when
// the registering chunk has not arrived yet. Shared-state events bypass the
// shards entirely — at most one clone/merge owns a source's shared state, so
// a per-MB atomic pointer suffices.
func (r *txnRouter) route(src *mbConn, ev *sbi.Event) {
	if ev.Shared {
		if t := src.sharedTxn.Load(); t != nil {
			t.handleSharedEvent(ev)
		}
		return
	}
	// An event names its state by FlowKey; a key no table can hold (a
	// non-IPv4 address) names no registered state and is dropped.
	id, ok := ev.Key.ID()
	if !ok {
		return
	}
	rk := routeKey{mb: src, key: id}
	sh := r.shard(id)
	sh.mu.Lock()
	ks := sh.keys[rk]
	if ks == nil {
		if ev.Kind == sbi.EventReprocess && len(sh.orphans[rk]) < maxOrphansPerKey {
			sh.alloc()
			sh.orphans[rk] = append(sh.orphans[rk], ev)
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
// keys hash to. When the source MB has no other live transactions, its
// orphaned events are discarded — stragglers from the finished transactions
// that nothing will ever adopt.
func (r *txnRouter) detach(t *txn) {
	for _, keys := range t.takeFrames() {
		r.eachShard(keys, func(sh *routerShard, i int) {
			rk := routeKey{mb: t.src, key: keys[i]}
			if ks := sh.keys[rk]; ks != nil && ks.owner == t {
				delete(sh.keys, rk)
				sh.release()
			}
		})
	}
	t.src.sharedTxn.CompareAndSwap(t, nil)
	if t.src.liveTxns.Add(-1) == 0 {
		r.purgeOrphanMatch(t.src, packet.MatchAll)
	}
}

// purgeOrphanMatch discards orphaned events held for mb whose key falls
// under m (either direction, matching the clear-marks semantics on the
// middlebox side). Move rollback uses it: orphans raised under an aborted
// transfer's match describe packets the restarted transfer's snapshot will
// already contain, so letting the restart adopt them would replay — and
// double-count — those packets at the destination.
func (r *txnRouter) purgeOrphanMatch(mb *mbConn, m packet.FieldMatch) {
	im := m.ForID()
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		for rk := range sh.orphans {
			if rk.mb == mb && im.MatchEither(rk.key) {
				delete(sh.orphans, rk)
			}
		}
		sh.release()
		sh.mu.Unlock()
	}
}

// purgeMB drops all routing state for a disconnected middlebox so entries
// cannot leak past the connection's lifetime.
func (r *txnRouter) purgeMB(mb *mbConn) {
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		for rk := range sh.keys {
			if rk.mb == mb {
				delete(sh.keys, rk)
			}
		}
		for rk := range sh.orphans {
			if rk.mb == mb {
				delete(sh.orphans, rk)
			}
		}
		sh.release()
		sh.mu.Unlock()
	}
}

// forwardEvents sends reprocess events to dst in order — one frame per call
// (up to the destination's announced batch) rather than one frame per
// event, and one explicit flush for the whole forwarded batch rather than
// one flush decision per frame. Destinations that did not announce event
// batching in their hello get the per-event framing. The flush is inline
// (not handed to the flush scheduler) on purpose: a drain blocking here
// against a slow destination is the router's ordered-drain backpressure,
// which eviction-during-drain correctness leans on. Never called with a
// shard lock held.
func forwardEvents(c *Controller, dst *mbConn, evs []*sbi.Event) {
	if len(evs) == 0 {
		return
	}
	c.eventsForwarded.Add(uint64(len(evs)))
	batch := dst.eventBatch
	if batch < 1 {
		batch = 1
	}
	err := sbi.FrameEvents(evs, batch, func(frame []*sbi.Event) error {
		m := &sbi.Message{Type: sbi.MsgRequest, Op: sbi.OpReprocess}
		m.SetEvents(frame)
		return dst.conn.SendDeferred(m)
	})
	if err == nil {
		_ = dst.conn.Flush()
	}
}

// routeEvent dispatches an MB-raised event: introspection events go to the
// controller's subscribers; reprocess events go to its sharded transaction
// router.
func (mb *mbConn) routeEvent(ev *sbi.Event) {
	if ev == nil {
		return
	}
	if ev.Kind == sbi.EventIntrospection {
		mb.ctrl.notifyIntrospection(mb.name, ev)
		return
	}
	mb.ctrl.router.route(mb, ev)
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

// exportHandoff removes and returns every routing entry the router holds for
// mb — in-transaction key states and orphaned events — rendered as the SBI
// ownership-transfer payload. Transaction identity travels as registry IDs
// in the payload's Txns table, so the result is self-contained: a receiving
// node re-binds the keys from the bytes and its own registry alone. Each
// shard is exported under its lock; nothing freezes the connection, so an
// event routed after its shard was visited stays behind (Node.releaseMB).
func (r *txnRouter) exportHandoff(mb *mbConn) *sbi.Handoff {
	h := &sbi.Handoff{MB: mb.name}
	var txns []*txn
	index := map[*txn]uint64{}
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		for rk, ks := range sh.keys {
			if rk.mb != mb {
				continue
			}
			ti, ok := index[ks.owner]
			if !ok {
				txns = append(txns, ks.owner)
				ti = uint64(len(txns))
				index[ks.owner] = ti
			}
			h.Keys = append(h.Keys, sbi.HandoffKey{
				Key: rk.key.Key(), Txn: ti, Pending: ks.pending, Events: ks.buffered,
			})
			delete(sh.keys, rk)
		}
		for rk, evs := range sh.orphans {
			if rk.mb != mb {
				continue
			}
			h.Keys = append(h.Keys, sbi.HandoffKey{Key: rk.key.Key(), Events: evs})
			delete(sh.orphans, rk)
		}
		sh.release()
		sh.mu.Unlock()
	}
	// Publish the transfer table's registry IDs on the wire payload, so a
	// receiver (or an operator reading a handoff dump) can name the exact
	// transactions being re-bound: Txns[i] is the ID of table slot i+1.
	for _, t := range txns {
		h.Txns = append(h.Txns, t.id)
	}
	return h
}

// importHandoff installs a transferred flowspace into this router, resolving
// the payload's transfer table through reg by wire ID — the payload plus a
// registry is the complete input. Shard counts may differ between nodes —
// each router hashes the keys into its own shards.
//
// IDs reg cannot resolve name transactions that died with a remote
// coordinator: their keys are dropped (buffered events discarded), the same
// aborted-remote outcome a move rollback produces, and the count of dropped
// keys is returned. Live packets are always counted at the source first, so
// discarding the replay buffer loses no accepted packet.
func (r *txnRouter) importHandoff(mb *mbConn, h *sbi.Handoff, reg *txnRegistry) (int, error) {
	table := make([]*txn, len(h.Txns))
	for i, id := range h.Txns {
		table[i] = reg.find(id)
	}
	for i := range h.Keys {
		hk := &h.Keys[i]
		if hk.Txn > uint64(len(table)) {
			return 0, fmt.Errorf("core: handoff for %q references transaction %d of %d", h.MB, hk.Txn, len(table))
		}
		if _, ok := hk.Key.ID(); !ok {
			return 0, fmt.Errorf("core: handoff for %q carries non-IPv4 key %s", h.MB, hk.Key)
		}
	}
	dropped := 0
	for i := range h.Keys {
		hk := &h.Keys[i]
		id, _ := hk.Key.ID() // checked above
		rk := routeKey{mb: mb, key: id}
		sh := r.shard(id)
		sh.mu.Lock()
		sh.alloc()
		if hk.Txn == 0 {
			sh.orphans[rk] = append(sh.orphans[rk], hk.Events...)
		} else if owner := table[hk.Txn-1]; owner != nil {
			sh.keys[rk] = &keyState{owner: owner, pending: hk.Pending, buffered: hk.Events}
		} else {
			dropped++
		}
		sh.mu.Unlock()
	}
	return dropped, nil
}
