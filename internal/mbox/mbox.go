// Package mbox is the middlebox runtime shared by every OpenMB-enabled
// middlebox. It implements the mechanics of the southbound API (§4 of the
// paper) once, so that concrete middleboxes (internal/mbox/ips, monitor, re,
// nat, lb) only supply their packet-processing logic and state
// serialization — per-flow state through one Table, whose Codec is all a
// middlebox writes of the per-flow southbound calls:
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

	// GetPerflow streams the plaintext chunks of the given class whose
	// keys match m, at the middlebox's own keying granularity. If m is
	// finer than that granularity, return an error (§4.1.2).
	//
	// Table implements GetPerflow, PutPerflow, DelPerflow and the per-flow
	// half of Stats once, to this contract; a middlebox that embeds one
	// supplies only its value's Codec. The rest of this comment is what the
	// table does, for a logic that does not use one.
	//
	// For each matching chunk, call emit with the chunk's key and a
	// build function that snapshots the chunk's state, in any order of
	// keys (the runtime's marks are a set). build receives a
	// mark callback and MUST invoke it while holding the lock that
	// serializes this chunk against packet processing, immediately
	// before serializing. This makes the moved-mark and the snapshot
	// atomic with respect to packets: an update that lands before the
	// snapshot is in the blob and raises no event; an update after it
	// raises a reprocess event. State is transferred exactly once —
	// atomicity requirements (ii) and (iii) of §4.2.1.
	//
	// Implementations should collect matching keys under their lock,
	// then emit each chunk with build serializing under a short
	// per-chunk lock acquisition. A key whose state left in between is
	// still marked and exported, as a zero-length blob (a tombstone).
	//
	// Keys cross this interface as FlowKeys; tables hold packet.FlowID.
	// The runtime marks key.ID(), so ProcessBurst must Touch with the ID of
	// the key the state is exported under, and a key with a non-IPv4
	// address fails the get (the wire form cannot carry it).
	GetPerflow(class state.Class, m packet.FieldMatch, emit func(key packet.FlowKey, build func(mark func()) ([]byte, error)) error) error

	// PutPerflow installs one chunk previously exported by a peer
	// instance of the same kind, under c.Key.ID(); a key whose ID reports
	// false is rejected. A tombstone (zero-length blob) installs nothing.
	PutPerflow(class state.Class, c state.Chunk) error

	// DelPerflow removes matching state without side effects (no log
	// entries, no alerts: the state has moved, not terminated). Returns
	// the number of chunks removed. A match GetPerflow refuses is refused
	// here too, and counts no per-flow chunks in Stats.
	DelPerflow(class state.Class, m packet.FieldMatch) (int, error)

	// GetShared exports the shared state of the given class as a single
	// chunk (§4.1.2: "all shared state must be cloned/merged"). Like
	// GetPerflow's build, implementations MUST invoke mark under the
	// lock serializing shared state against packet processing, right
	// before serializing.
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
