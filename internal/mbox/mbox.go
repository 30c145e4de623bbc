// Package mbox is the middlebox runtime shared by every OpenMB-enabled
// middlebox. It implements the mechanics of the southbound API (§4 of the
// paper) once, so that concrete middleboxes (internal/mbox/ips, monitor, re,
// nat, lb) only supply their packet-processing logic and state
// serialization — per-flow state through one embedded Table, on which the
// runtime runs the per-flow get, put and delete, so that its Codec is all a
// middlebox writes of them:
//
//   - a packet loop decoupling link delivery from processing;
//   - the moved-flag registry and the three-step reprocess-event scheme of
//     §4.2.1 (process normally at the source, raise an event if moved state
//     was updated, replay at the destination with side effects suppressed);
//   - introspection events with enable/disable filters (§4.2.2);
//   - the southbound request dispatch: get/put/del for per-flow and shared
//     supporting and reporting state, config ops, stats, and event filters.
//
// The division of responsibility follows §3.2: the middlebox logic remains
// autonomous — it creates and modifies supporting and reporting state as it
// always has — while the runtime only controls where state resides and
// provides visibility into state-changing actions.
package mbox

import (
	"errors"

	"openmb/internal/packet"
	"openmb/internal/sbi"
	"openmb/internal/state"
)

// ErrNoSharedState is returned by Logic.GetShared/PutShared for state
// classes the middlebox does not maintain (e.g. a monitor has no shared
// supporting state). The runtime reports it as an empty transfer and the
// controller skips that class during clone/merge, so heterogeneous state
// shapes do not fail whole operations.
var ErrNoSharedState = errors.New("mbox: middlebox has no shared state of this class")

// Logic is the contract a concrete middlebox implements. Implementations
// must be safe for concurrent calls: the packet loop invokes ProcessBurst
// while the southbound loop invokes state operations. Hold locks per chunk,
// not per operation, so that a long-running get does not stall the data path
// (the paper measures at most a 2% per-packet latency increase during gets).
//
// A logic has per-flow state only through a Table in its method set: a
// Table embedded in its struct, the logic passed by pointer — the
// middleboxes here do so, and a logic outside the module does the same with
// openmb.Table[V] (examples/custommb) — or the inner logic's when it wraps
// one by embedding Logic. New finds it once. A logic passed by value with a
// Table embedded by value has none in its method set, so it has no per-flow
// state: its per-flow gets and deletes answer Count 0 and its puts are
// refused, as for a logic with no Table (the RE boxes). Methods named
// GetPerflow, PutPerflow or DelPerflow on a logic are never called.
type Logic interface {
	// Kind returns the middlebox type name, e.g. "ips" or "monitor".
	Kind() string

	// ProcessBurst handles a burst of packets in arrival order; ctxs[i] is
	// the Context of pkts[i] (len(ctxs) == len(pkts)). It is the only way
	// packets reach the logic, so one lock acquisition, config parse or
	// table lookup can be amortized across the burst. State touches and
	// external side effects are reported through each packet's Context.
	//
	// A burst may mix replayed and live packets (replays come first):
	// consult each ctx — Replay, SkipShared, SkipPerflow — not the burst.
	// The outcome must be the one len(pkts) bursts of one packet each would
	// produce: the same state updates, Touch/TouchShared calls, Emits, Logs
	// and raised events, in the same per-packet order.
	//
	// The logic owns no reference on pkts[i]: ctxs[i].Emit(pkts[i])
	// supplies the downstream's reference (the first one by passing on the
	// runtime's borrow), and the runtime releases what was not passed on
	// after ProcessBurst returns. Emits are buffered by the Context and
	// flushed downstream in one hand-off after the call, so Emit is safe —
	// and intended — to call while holding the logic's own lock, and every
	// packet stays readable until ProcessBurst returns. The runtime reuses
	// ctxs across bursts: do not retain them past the call.
	ProcessBurst(ctxs []Context, pkts []*packet.Packet)

	// GetShared exports the shared state of the given class as a single
	// chunk (§4.1.2: "all shared state must be cloned/merged"). As a get
	// marks each per-flow key under the Table's lock, implementations MUST
	// invoke mark under the lock serializing shared state against packet
	// processing, right before serializing.
	GetShared(class state.Class, mark func()) ([]byte, error)

	// PutShared installs shared state. If shared state of that class
	// already exists the middlebox must merge, using whatever semantics
	// its state requires (§4.1.2, §4.1.3) — e.g. summing counters, or
	// retaining cache entries by hit count.
	PutShared(class state.Class, blob []byte) error

	// Stats reports how much state exists for the given key (§5).
	Stats(m packet.FieldMatch) sbi.StatsReply

	// Config returns the middlebox's hierarchical configuration tree.
	Config() *state.ConfigTree
}
