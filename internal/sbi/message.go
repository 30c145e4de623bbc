// Package sbi implements the MB-facing ("southbound") API of OpenMB (§4 of
// the paper): the wire protocol middleboxes use to receive and export state
// and to raise events toward the MB controller.
//
// Two codecs frame messages: length-prefixed binary (the default, announced
// at hello) and newline-delimited JSON, the paper prototype's format (which
// exchanged JSON over UNIX sockets using JSON-C), kept as the compatibility
// and debug path — see docs/SBI.md. Two transports are provided: TCP for
// deployments (cmd/openmb-controller and cmd/openmb-mb) and an in-memory
// pipe transport for deterministic tests and benchmarks.
package sbi

import (
	"openmb/internal/packet"
	"openmb/internal/racedetect"
	"openmb/internal/state"
)

// Op names a southbound state operation (§4.1). The names match the paper.
type Op string

// Southbound operations. Config ops take Path/Values; per-flow ops take
// Match (the HeaderFieldList); shared ops carry a single Blob.
const (
	OpGetConfig Op = "getConfig"
	OpSetConfig Op = "setConfig"
	OpDelConfig Op = "delConfig"

	OpGetSupportPerflow Op = "getSupportPerflow"
	OpPutSupportPerflow Op = "putSupportPerflow"
	OpDelSupportPerflow Op = "delSupportPerflow"
	OpGetSupportShared  Op = "getSupportShared"
	OpPutSupportShared  Op = "putSupportShared"

	OpGetReportPerflow Op = "getReportPerflow"
	OpPutReportPerflow Op = "putReportPerflow"
	OpDelReportPerflow Op = "delReportPerflow"
	OpGetReportShared  Op = "getReportShared"
	OpPutReportShared  Op = "putReportShared"

	// OpStats reports how much shared and per-flow supporting and
	// reporting state exists for a given key (backs the northbound
	// stats() call of §5).
	OpStats Op = "stats"

	// OpSetEventFilter enables or disables introspection event generation
	// for an event-code prefix and flow match (§4.2.2).
	OpSetEventFilter Op = "setEventFilter"

	// OpReprocess delivers a buffered reprocess event's packet to the
	// destination MB of a move/clone; the MB updates state but suppresses
	// external side effects (§4.2.1 step 3).
	OpReprocess Op = "reprocess"

	// OpCredit returns Count chunk frames of credit to the windowed get
	// whose request ID it carries; Count 0 cancels the get. It is never
	// answered. See Message.Window and docs/SBI.md.
	OpCredit Op = "credit"

	// OpEndTransaction tells a source MB that a controller transaction
	// has ended, clearing its moved/cloned marks so it stops raising
	// reprocess events. With Enable set it clears shared-state marks;
	// otherwise it clears per-flow marks matching Match. It ends every
	// failed transaction, and completes clones and merges, which must not
	// delete state (§5: "no delete operation is called when events stop
	// arriving"); a completed move's del operations clear its marks.
	OpEndTransaction Op = "endTransaction"

	// OpPing is the controller's liveness probe: a MsgRequest sent when a
	// connection has been quiet for a heartbeat interval. The middlebox
	// answers with a MsgDone echoing the request ID and carrying Op=pong
	// (see OpPong). Peers that predate heartbeats reply MsgError for the
	// unknown op, which also proves liveness; either way the reply stamps
	// the conn's last-received clock, so the probe never needs its own
	// completion tracking.
	OpPing Op = "ping"

	// OpPong marks a MsgDone frame as the explicit answer to an OpPing.
	// It appears only on done frames, never as a request op. The prober
	// counts pong-marked frames (Metrics.PongsReceived) but does not
	// require them: any received frame proves life, so a plain done from a
	// pre-pong middlebox still satisfies the probe.
	OpPong Op = "pong"

	// OpTraceFlow arms (Enable=true) or disarms the middlebox's filtered
	// flow tracer: capture up to Count per-hop records (ingress ring,
	// burst dispatch, app verdict, egress) of packets whose flow satisfies
	// Match in either direction. The match is compiled into a predicate
	// closure once, at arm time; the disarmed data-path cost is a single
	// atomic pointer load per hook. Count<=0 selects the default budget.
	OpTraceFlow Op = "traceFlow"

	// OpTraceDump retrieves the newest trace session's records without
	// disturbing an armed session. The MsgDone reply carries Count records
	// as rendered lines in Values, in capture order.
	OpTraceDump Op = "traceDump"

	// OpDirUpdate propagates replicated-directory entries between cluster
	// nodes: the sender's view of which node owns which middlebox, as
	// versioned entries in the Dir field. The receiver merges each entry
	// under the deterministic conflict rule (higher version wins; equal
	// versions break toward the lexicographically greater node name) and
	// acknowledges with MsgDone. Acks are what ownership commits count
	// toward their quorum, so a partitioned node that cannot reach a
	// majority refuses the change. Travels node-to-node only.
	OpDirUpdate Op = "dirUpdate"

	// OpDirSync asks a peer node for its full directory snapshot. The
	// MsgDone reply carries every entry in Dir plus the sender's known peer
	// list in Values as "name=addr" strings, so a joining node learns both
	// the directory and the mesh from one exchange.
	OpDirSync Op = "dirSync"

	// OpPeerLeave announces a node's graceful departure. The receiver
	// removes the sender from its known-node set (shrinking future commit
	// quorums) and stops redialing it. A crashed node never sends this, so
	// it stays in the denominator — exactly the conservative behavior a
	// partition-safe quorum needs.
	OpPeerLeave Op = "peerLeave"

	// OpRedirect tells a middlebox to reconnect to the controller address
	// in Addr: the final step of a cross-node ownership pull. The middlebox
	// acknowledges with MsgDone, promotes the address to the front of its
	// dial list, and closes the connection so its reconnect machinery
	// redials the new owner.
	OpRedirect Op = "redirect"

	// OpReleaseMB asks the owning node to give up the middlebox named in
	// Name by redirecting it to the requesting node's address (carried in
	// Addr). The MsgDone reply carries nothing: the old owner's routing
	// state for the middlebox dies with the redirected connection. Travels
	// node-to-node only.
	OpReleaseMB Op = "releaseMB"
)

// PeerKind is the hello Kind a cluster node announces when dialing a fellow
// node: the connection carries directory ops and ownership releases instead
// of middlebox state ops. Peer hellos also carry the dialer's advertised
// address in Addr, and the acceptor answers with a hello of its own (the
// only hello that is ever answered) so the dialer learns its name.
const PeerKind = "peer"

// MsgType discriminates wire messages.
type MsgType string

// Wire message types.
const (
	// MsgHello is sent by an MB immediately after connecting.
	MsgHello MsgType = "hello"
	// MsgRequest is a controller-to-MB operation request.
	MsgRequest MsgType = "request"
	// MsgChunk streams one piece of per-flow state (MB-to-controller, in
	// response to a get) — the [HeaderFieldList:EncryptedChunk] pair.
	MsgChunk MsgType = "chunk"
	// MsgDone completes a request: the ACK of Figure 5. For get streams
	// it follows the last chunk; for puts it acknowledges installation.
	MsgDone MsgType = "done"
	// MsgEvent carries a reprocess or introspection event (MB-initiated).
	MsgEvent MsgType = "event"
	// MsgError reports a failed request.
	MsgError MsgType = "error"
)

// EventKind discriminates MB-raised events (§4.2).
type EventKind string

// Event kinds.
const (
	// EventReprocess asks the move/clone destination to re-process a
	// packet that updated in-transaction state at the source (§4.2.1).
	EventReprocess EventKind = "reprocess"
	// EventIntrospection announces that the MB established or updated
	// internal state, without revealing why (§4.2.2).
	EventIntrospection EventKind = "introspection"
)

// Event is an MB-raised notification. Reprocess events carry the triggering
// packet; introspection events carry a code (e.g. "nat.mapping.created") and
// MB-specific values. Both always include the key identifying the state.
// Key marshals itself (packet.FlowKey implements TextMarshaler), so the wire
// form is the same "src:port>dst:port/proto" string as before.
type Event struct {
	Kind   EventKind         `json:"kind"`
	Key    packet.FlowKey    `json:"key"`
	Code   string            `json:"code,omitempty"`
	Packet []byte            `json:"packet,omitempty"`
	Values map[string]string `json:"values,omitempty"`
	// Seq is a per-MB monotone sequence number; the controller uses it to
	// preserve event order while buffering (§5).
	Seq uint64 `json:"seq"`
	// Class tells the controller which state class the event concerns,
	// so reprocess buffering can be matched to the right put stream.
	Class state.Class `json:"class,omitempty"`
	// Shared marks reprocess events triggered by updates to shared state
	// (clone/merge transactions) rather than per-flow state; the
	// controller buffers them against the shared put instead of a
	// per-key put.
	Shared bool `json:"shared,omitempty"`
}

// StatsReply answers the northbound stats() call: how much shared and
// per-flow supporting and reporting state exists for a given key (§5).
type StatsReply struct {
	SupportPerflowChunks int `json:"supportPerflowChunks"`
	SupportPerflowBytes  int `json:"supportPerflowBytes"`
	ReportPerflowChunks  int `json:"reportPerflowChunks"`
	ReportPerflowBytes   int `json:"reportPerflowBytes"`
	SupportSharedBytes   int `json:"supportSharedBytes"`
	ReportSharedBytes    int `json:"reportSharedBytes"`
}

// Message is the single wire frame. Fields are populated according to Type;
// unused fields are omitted from the JSON encoding.
type Message struct {
	Type MsgType `json:"type"`
	// ID correlates requests with their chunks/done/error replies.
	ID uint64 `json:"id,omitempty"`

	// Hello fields.
	Name string `json:"name,omitempty"` // MB instance name, e.g. "prads1"
	Kind string `json:"kind,omitempty"` // MB type, e.g. "monitor", "ips"
	// Codec announces the codec the middlebox will use for every frame
	// after the hello (which is always JSON). Empty means JSON; the
	// controller switches its side of the connection to match.
	Codec Codec `json:"codec,omitempty"`

	// Request fields.
	Op     Op                `json:"op,omitempty"`
	Path   string            `json:"path,omitempty"`
	Values []string          `json:"values,omitempty"`
	Match  packet.FieldMatch `json:"match,omitempty"`
	Blob   []byte            `json:"blob,omitempty"`
	// Enable applies to OpSetEventFilter and OpTraceFlow (arm/disarm),
	// and selects the shared-state marks on OpEndTransaction.
	Enable bool `json:"enable,omitempty"`
	// TTLNanos bounds an event filter's lifetime (§4.2.2: "receive all
	// events only for a limited period of time"); 0 means no expiry.
	TTLNanos int64 `json:"ttlNanos,omitempty"`
	// Compressed marks Blob/Chunk payloads as flate-compressed (§8.3
	// compression ablation).
	Compressed bool `json:"compressed,omitempty"`
	// Batch, on a get request, asks the middlebox to pack up to this many
	// state chunks into each MsgChunk frame (0 and 1 mean one chunk per
	// frame, the paper's original framing). On a hello it announces the
	// largest Events batch the middlebox is willing to receive per
	// OpReprocess frame (0 and 1 mean unbatched delivery, so peers that
	// predate event batching keep the per-event framing).
	Batch int `json:"batch,omitempty"`
	// Window, on a per-flow get, is how many chunk frames the middlebox may
	// send beyond the OpCredit returned (0: no window).
	Window int `json:"window,omitempty"`

	// Chunk payload (MsgChunk, and OpPut*Perflow requests).
	Chunk *state.Chunk `json:"chunk,omitempty"`
	// Chunks is the batched chunk payload: a MsgChunk frame (or a batched
	// put request) carrying several state chunks at once. Chunk and Chunks
	// may not both be set.
	Chunks []state.Chunk `json:"chunks,omitempty"`
	// Keys is never on the wire: a receiver that resolves a chunk frame's
	// keys to IDs keeps them here, with the frame.
	Keys []packet.FlowID `json:"-"`

	// Done payload. Count also rides OpTraceFlow requests as the record
	// budget (<=0 selects the default).
	Count   int           `json:"count,omitempty"`
	Entries []state.Entry `json:"entries,omitempty"`
	Stats   *StatsReply   `json:"stats,omitempty"`

	// Event payload (MsgEvent, and OpReprocess requests).
	Event *Event `json:"event,omitempty"`
	// Events is the batched event payload: one MsgEvent frame (middlebox to
	// controller) or one OpReprocess request (controller to middlebox)
	// carrying several events raised within one coalescing window, in seq
	// order. Event and Events may not both be set; a lone event travels in
	// Event, the paper's one-event framing, so unbatched peers interoperate.
	// A middlebox announces willingness to RECEIVE batched reprocess frames
	// with the Batch field of its hello; see docs/SBI.md.
	Events []*Event `json:"events,omitempty"`

	// Error payload (MsgError).
	Error string `json:"error,omitempty"`

	// Addr carries an endpoint address: the dialer's advertised peer
	// address on a peer hello, the requesting node's address on an
	// OpReleaseMB, and the new controller address on an OpRedirect.
	Addr string `json:"addr,omitempty"`

	// Dir carries replicated-directory entries (OpDirUpdate requests and
	// OpDirSync replies).
	Dir []DirEntry `json:"dir,omitempty"`

	// frame is the pooled storage a binary-decoded frame borrowed, m
	// being its msg; Release returns it.
	frame *frameBuf
}

// Release gives a received message back to the codec's frame pool whole:
// the Message, its body (which its blobs and packets alias) and its chunk
// slice. The receiver owns a message until it releases it, once; after
// that nothing may read or write m or what it held, Keys included, since a
// later frame is decoded into the same storage, so a consumer takes what it
// still needs (an ID, a key slice) first. The race build poisons m and its
// body. It is a no-op for a message that borrowed nothing (an event frame,
// a JSON-decoded one, one built to be sent); one never released is
// collected. A move's put worker releases its chunk frames and the puts'
// ACKs, the middlebox the puts and credits.
func (m *Message) Release() {
	fb := m.frame
	if fb == nil {
		return
	}
	fb.msg = Message{}
	if racedetect.Enabled {
		for i := range fb.body {
			fb.body[i] = framePoison
		}
		fb.msg = releasedMessage
	}
	if cap(fb.body) <= maxPooledFrame {
		framePool(cap(fb.body)).Put(fb)
	}
}

// DirEntry is one replicated-directory record: which cluster node owns a
// middlebox, at what version. Versions are per-name monotone counters; the
// conflict rule (higher version wins, ties break toward the greater node
// name) makes concurrent merges deterministic on every replica.
type DirEntry struct {
	Name    string `json:"name"`
	Node    string `json:"node"`
	Version uint64 `json:"version,omitempty"`
}

// MaxEventsPerFrame bounds how many events one frame may carry: deep enough
// that a whole coalescing window's burst travels in one frame, shallow
// enough that a frame of packet-bearing reprocess events stays far below
// the binary codec's frame limit. Runtimes announce it in their hello.
const MaxEventsPerFrame = 64

// EventCount returns the number of events the frame carries.
func (m *Message) EventCount() int {
	n := len(m.Events)
	if m.Event != nil {
		n++
	}
	return n
}

// EachEvent invokes fn for every event in the frame, covering both the
// single-event and the batched representation, in wire (seq) order.
func (m *Message) EachEvent(fn func(ev *Event)) {
	if m.Event != nil {
		fn(m.Event)
	}
	for _, ev := range m.Events {
		fn(ev)
	}
}

// SetEvents stores the frame's event payload in the canonical wire
// representation: exactly one event travels in the Event field (the paper's
// one-event framing), several travel in the Events array. Every producer of
// event frames — the mbox outbox flusher and the controller's reprocess
// forwarding — uses this helper so the single-versus-batched choice is made
// in one place, mirroring SetChunks.
func (m *Message) SetEvents(evs []*Event) {
	if len(evs) == 1 {
		m.Event, m.Events = evs[0], nil
		return
	}
	m.Event, m.Events = nil, evs
}

// FrameEvents splits evs into frames of at most batch each (batch < 1 means
// 1, the per-event framing) and invokes fn per frame, stopping at the first
// error. Mirrors FrameChunks.
func FrameEvents(evs []*Event, batch int, fn func(frame []*Event) error) error {
	if batch < 1 {
		batch = 1
	}
	if batch > MaxEventsPerFrame {
		batch = MaxEventsPerFrame
	}
	for lo := 0; lo < len(evs); lo += batch {
		hi := lo + batch
		if hi > len(evs) {
			hi = len(evs)
		}
		if err := fn(evs[lo:hi]); err != nil {
			return err
		}
	}
	return nil
}

// ChunkCount returns the number of state chunks the frame carries.
func (m *Message) ChunkCount() int {
	n := len(m.Chunks)
	if m.Chunk != nil {
		n++
	}
	return n
}

// EachChunk invokes fn for every state chunk in the frame, covering both the
// single-chunk and the batched representation.
func (m *Message) EachChunk(fn func(c *state.Chunk)) {
	if m.Chunk != nil {
		fn(m.Chunk)
	}
	for i := range m.Chunks {
		fn(&m.Chunks[i])
	}
}

// SetChunks stores the frame's chunk payload in the canonical wire
// representation: exactly one chunk travels in the Chunk field (the paper's
// one-chunk framing), several travel in the Chunks array. Every producer of
// chunk frames — the middlebox get streamer, the controller's move
// forwarding, and the eval harness's pipelined puts — uses this helper so
// the single-versus-batched choice is made in one place.
func (m *Message) SetChunks(chunks []state.Chunk) {
	if len(chunks) == 1 {
		m.Chunk, m.Chunks = &chunks[0], nil
		return
	}
	m.Chunk, m.Chunks = nil, chunks
}

// FrameChunks splits chunks into frames of at most batch each (batch < 1
// means 1, the paper's framing) and invokes fn per frame, stopping at the
// first error. The final frame of a stream may be short.
func FrameChunks(chunks []state.Chunk, batch int, fn func(frame []state.Chunk) error) error {
	if batch < 1 {
		batch = 1
	}
	for lo := 0; lo < len(chunks); lo += batch {
		hi := lo + batch
		if hi > len(chunks) {
			hi = len(chunks)
		}
		if err := fn(chunks[lo:hi]); err != nil {
			return err
		}
	}
	return nil
}
