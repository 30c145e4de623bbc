package mbox

import (
	"openmb/internal/packet"
	"openmb/internal/state"
)

// Context carries per-packet processing state between the runtime and the
// middlebox logic. The logic reports which pieces of state it updated
// (Touch/TouchShared) and performs external side effects through it
// (Emit/Log); during replay of a reprocess event the runtime suppresses the
// side effects while still applying state updates — atomicity requirement
// (ii) of §4.2.1.
type Context struct {
	rt *Runtime
	// pkt is the packet being processed. The runtime owns its borrowed
	// reference until the logic Emits this exact packet: the first such
	// live Emit hands it downstream (moved), and the runtime then
	// neither releases the packet nor reads it after the emits are flushed.
	pkt   *packet.Packet
	moved bool
	// rewritten latches a Rewrite granted in place: pkt no longer holds
	// the bytes that arrived, so no reprocess event may be raised for it.
	rewritten bool
	// Replay is true when the packet is being re-processed from an event
	// raised by a peer middlebox. Logic may consult it for rare cases
	// (e.g. suppressing retransmission heuristics) but normally need not.
	Replay bool
	// replayShared records whether the originating transaction covered
	// shared state; see SkipShared and SkipPerflow.
	replayShared bool

	// raise records whether a reprocess event must be raised for this
	// packet, and for which state. The decision is made inside Touch,
	// which the logic calls while holding its own lock — making the
	// moved-mark check atomic with the state update it reports.
	raise       bool
	raiseID     packet.FlowID
	raiseClass  state.Class
	raiseShared bool
	emitted     int

	// burst is the scratch state a burst's contexts share: Emit buffers
	// into it (one downstream hand-off per burst instead of one per packet)
	// and introspection filters are evaluated against a once-per-burst
	// snapshot. Nil only on detached (NewBenchContext) contexts, whose side
	// effects go nowhere; a replayed packet's side effects are suppressed
	// before they reach it.
	burst *burstState
}

// Touch records that the logic created or updated the per-flow state
// identified by id — the FlowID of the key GetPerflow exports it under, at
// the middlebox's own keying granularity — of the given class. Call it while
// holding the lock that serializes this state against export: if the state
// is currently part of a move or clone transaction, the runtime will raise a
// reprocess event after the packet completes.
//
// With no transaction in progress Touch takes no lock: it reads the count of
// marks and returns on zero. That read cannot miss a mark that matters. A
// mark is only ever set by the mark() callback of GetPerflow/GetShared, which
// the logic invokes while holding its own lock, and Touch is called under
// that same lock. So either the export's critical section came first — then
// its count update happened before this Touch through the lock's
// unlock/lock edge, and the count read here is not zero — or this Touch's
// critical section came first, and the update it reports is inside the
// exported blob. A stale non-zero read only costs the locked lookup below.
func (c *Context) Touch(class state.Class, id packet.FlowID) {
	if c.Replay || c.raise || c.rt.markCount.Load() == 0 {
		return
	}
	if c.rt.marked(class, id) {
		c.mustNotBeRewritten()
		c.raise, c.raiseID, c.raiseClass, c.raiseShared = true, id, class, false
	}
}

// TouchShared records that the logic updated shared state of the given
// class, under the same locking discipline (and the same lock-free exit) as
// Touch.
func (c *Context) TouchShared(class state.Class) {
	if c.Replay || c.raise || c.rt.markCount.Load() == 0 {
		return
	}
	c.rt.marksMu.Lock()
	moved := c.rt.sharedMoved[class]
	c.rt.marksMu.Unlock()
	if moved {
		c.mustNotBeRewritten()
		c.raise = true
		c.raiseClass = class
		c.raiseShared = true
	}
}

// mustNotBeRewritten guards a raise: a reprocess event carries the packet as
// it arrived, which a packet rewritten in place no longer is. Logic must
// Touch everything a packet updates before it Rewrites it; a raise decided
// after a granted in-place Rewrite is a bug in the logic.
func (c *Context) mustNotBeRewritten() {
	if c.rewritten {
		panic("mbox: Touch would raise a reprocess event for a packet already rewritten in place; Touch before Rewrite")
	}
}

// Rewrite returns the packet the logic may modify and emit in place of p:
// p itself when the rewrite can happen in place, else p.Clone(). In place
// requires all of: p is the packet this context is processing, the runtime's
// borrow on it is its only reference (Packet.Exclusive), it is not a replay,
// no reprocess event is pending for it (the event must carry the packet as it
// arrived) and it has not been emitted yet. Call it after every Touch for the
// packet: a granted in-place Rewrite latches, and a later Touch that would
// raise panics. Emitting the result passes the runtime's borrow on when it
// is p, or hands the copy off when it is not — either way one Emit; a packet
// that is not emitted is released by the runtime as usual.
func (c *Context) Rewrite(p *packet.Packet) *packet.Packet {
	if p != c.pkt || c.Replay || c.raise || c.moved || !p.Exclusive() {
		return p.Clone()
	}
	c.rewritten = true
	return p
}

// Emit sends a packet onward into the network — an external side effect,
// suppressed during replay. Emit consumes one reference on p: emit a packet
// the logic created (a copy Rewrite returned, say) to hand it off entirely,
// or emit the packet currently being processed — passed through, or
// rewritten in place — to send it on. For that packet Emit supplies the
// downstream's reference itself: the first Emit passes on the runtime's own
// borrow, with no reference-count traffic for a packet that just passes
// through; any further Emit of it retains. Either way the logic may keep
// reading the packet until ProcessBurst returns.
func (c *Context) Emit(p *packet.Packet) {
	c.emitted++
	if c.Replay {
		c.rt.suppressedEmits.Add(1)
	}
	if c.Replay || c.burst == nil {
		// Suppressed (replay) or nowhere to go (detached context). Only a
		// packet the logic created is disposed of here — the one being
		// processed stays the runtime's.
		if p != c.pkt {
			p.Release()
		}
		return
	}
	if p == c.pkt {
		if !c.moved {
			c.moved = true
		} else {
			p.Retain()
		}
	}
	// Buffered: the runtime flushes the whole burst's emits downstream in
	// one hand-off after ProcessBurst returns. This is why Emit is safe to
	// call under the logic's lock — nothing leaves the runtime here.
	c.burst.emits = append(c.burst.emits, p)
}

// Log appends a line to the middlebox's log (conn.log / http.log style) —
// an external side effect, suppressed during replay.
func (c *Context) Log(stream, line string) {
	if c.Replay {
		c.rt.suppressedLogs.Add(1)
		return
	}
	c.rt.writeLog(stream, line)
}

// SkipShared reports whether the logic must skip updates to SHARED state
// for this packet. True during replay of a per-flow transaction's event:
// the packet was already counted in the source's shared state, which is not
// part of the transaction — updating it here would double-report (§4.1.3).
func (c *Context) SkipShared() bool { return c.Replay && !c.replayShared }

// SkipPerflow reports whether the logic must skip updates to PER-FLOW state
// for this packet. True during replay of a shared transaction's event (e.g.
// an RE cache clone): the flow itself still lives at the source, and
// creating per-flow state here would fabricate flows that were never
// routed to this instance.
func (c *Context) SkipPerflow() bool { return c.Replay && c.replayShared }

// NewBenchContext returns a Context backed by a detached runtime, for
// benchmarking or fuzzing Logic implementations directly, without a packet
// loop or controller connection. Side effects are recorded but go nowhere.
func NewBenchContext() *Context {
	rt := &Runtime{
		sharedMoved: map[state.Class]bool{},
		logs:        map[string][]string{},
	}
	return &Context{rt: rt}
}

// RaiseIntrospection raises an introspection event (§4.2.2) announcing that
// the middlebox created or updated state identified by id. code is the
// MB-specific event code (e.g. "nat.mapping.created"); values carry optional
// MB-specific details. The event is delivered only if a matching filter has
// been enabled, and never during replay; the ID expands to the event's
// FlowKey only then.
func (c *Context) RaiseIntrospection(code string, id packet.FlowID, values map[string]string) {
	// A detached context (nil burst) has no filters, so nothing is enabled.
	if c.Replay || c.burst == nil {
		return
	}
	// Evaluate against the burst's filter snapshot: one filtersMu
	// acquisition and one clock read per burst, not per event.
	if c.rt.filterAllowsBurst(c.burst, code, id) {
		c.rt.emitIntrospection(code, id.Key(), values)
	}
}
