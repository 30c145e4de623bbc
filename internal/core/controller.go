// Package core implements the OpenMB middlebox controller — the paper's
// primary contribution. The controller sits between control applications and
// middleboxes: it exposes the northbound control API of §5 (readConfig,
// writeConfig, stats, moveInternal, cloneSupport, mergeInternal) and brokers
// each call into southbound operations per Figure 5, handling the details
// applications must not see:
//
//   - streaming gets from the source MB and pipelined puts to the
//     destination, with per-put acknowledgment tracking;
//   - buffering reprocess events until the put for the state they apply to
//     has been acknowledged, then forwarding them in order;
//   - detecting event quiescence (no events for a quiet period) and then
//     completing the transaction: deleting moved state at the source, or
//     clearing transaction marks for clones and merges.
//
// This centralization is a deliberate design choice (§5): middleboxes never
// talk to each other, need no peer-communication logic, and the sequencing/
// failure handling is implemented once.
package core

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"openmb/internal/obs"
	"openmb/internal/packet"
	"openmb/internal/sbi"
)

// Options tunes controller behaviour.
type Options struct {
	// QuietPeriod is how long the controller waits without events from a
	// transaction's source MB before assuming the routing change has
	// taken effect and completing the transaction (paper default: 5 s;
	// tests and benchmarks use shorter values).
	QuietPeriod time.Duration
	// Compress requests flate compression of state transfers (§8.3).
	Compress bool
	// CallTimeout bounds individual southbound calls (default 30 s).
	CallTimeout time.Duration
	// BatchSize is how many state chunks the controller asks middleboxes
	// to pack per MsgChunk frame during moves, and how many it forwards
	// per put. 0 selects the default (32); 1 is one chunk per frame, the
	// paper's framing.
	BatchSize int
	// Shards is the number of transaction-router shards event routing,
	// chunk registration, and put acknowledgment are partitioned over,
	// rounded up to a power of two. 0 (or a negative value) selects a
	// default derived from GOMAXPROCS (minimum 2). Shards = 1 is a
	// one-shard router: every key behind one lock, same lifecycle.
	Shards int
	// PutWorkers bounds how many puts one MoveInternal keeps in flight
	// (default 64 — deep enough to hide the put ACK round trip, measured
	// on the Figure 10(b) sweep), and is each get's credit window in chunk
	// frames: a move holds at most 2 × PutWorkers frames unACKed.
	PutWorkers int
	// HeartbeatInterval enables liveness probing of connected middleboxes:
	// a connection quiet for one interval is sent an OpPing, and one quiet
	// for HeartbeatMisses consecutive intervals is declared dead (its
	// connection is closed, which drives the normal disconnect cleanup —
	// failAll, routing purge, deregistration). 0 (the default) disables
	// heartbeats; any frame received on the connection counts as liveness,
	// so a busy middlebox is never pinged at all.
	HeartbeatInterval time.Duration
	// HeartbeatMisses is how many silent intervals kill a connection
	// (default 3).
	HeartbeatMisses int
	// HelloTimeout bounds how long an accepted connection may take to
	// deliver its hello (default 10 s). A peer that connects and stalls —
	// a truncated hello, a half-open socket — is closed instead of pinning
	// its accept goroutine forever.
	HelloTimeout time.Duration
}

// DefaultBatchSize is the chunks-per-frame default: deep enough to amortize
// the per-frame costs (flush, put round trip, routing-lock acquisition), small
// enough that a frame of typical chunks stays well under the 64 KiB write
// buffer.
const DefaultBatchSize = 32

// maxShards caps the router shard count; beyond this, shard maps cost more
// than the contention they avoid.
const maxShards = 4096

func (o *Options) setDefaults() {
	if o.QuietPeriod == 0 {
		o.QuietPeriod = 5 * time.Second
	}
	if o.CallTimeout == 0 {
		o.CallTimeout = 30 * time.Second
	}
	if o.BatchSize < 1 {
		o.BatchSize = DefaultBatchSize
	}
	if o.Shards <= 0 {
		o.Shards = runtime.GOMAXPROCS(0)
		if o.Shards < 2 {
			o.Shards = 2
		}
	}
	if o.Shards > maxShards {
		o.Shards = maxShards
	}
	o.Shards = ceilPow2(o.Shards)
	if o.PutWorkers < 1 {
		o.PutWorkers = 64
	}
	if o.HeartbeatMisses < 1 {
		o.HeartbeatMisses = 3
	}
	if o.HelloTimeout == 0 {
		o.HelloTimeout = 10 * time.Second
	}
}

// ceilPow2 rounds n up to the next power of two.
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// Controller is the OpenMB middlebox controller: one node of a cluster. With
// no peers it is a one-node cluster: every registration commits to its own
// directory under a quorum of one, and pulling a local middlebox does
// nothing. Joined to fellow nodes over SBI peer links (peer.go), it adds:
//
//   - a replicated middlebox directory (repdir.go): every node holds a full
//     name → owning-node copy, updated by versioned OpDirUpdate peer ops
//     under a deterministic conflict rule, so lookups never cross the wire
//     and keep answering (stale but safe) under partition;
//   - quorum-committed ownership: registering a middlebox bumps its
//     directory entry and requires acknowledgments from a majority of known
//     nodes. A partitioned minority node refuses registrations — and
//     therefore refuses to become an owner it could not prove — while dead
//     nodes stay in the denominator, so a majority-side survivor keeps
//     committing after a crash;
//   - cross-node middlebox movement: MoveInternal, CloneSupport and
//     MergeInternal pull a middlebox another node owns (Pull asks the owner
//     to redirect it here and waits for its quorum-committed
//     re-registration; the old owner's routing state for it dies with the
//     redirected connection);
//   - RecoverMove, a survivor's restart of a move whose coordinator died.
type Controller struct {
	opts     Options
	nodeOpts NodeOptions
	name     string
	listener net.Listener

	// Cluster points back at the controller itself. benchmark/moves.go
	// reads Node.Cluster and Cluster.Replica(0); it goes in ROADMAP item
	// 1's benchmark PR.
	Cluster Cluster

	// router shards transaction routing state (see router.go).
	router *txnRouter

	// registry tracks live transactions, salted by the node name so IDs
	// are unique across the cluster.
	registry *txnRegistry

	repdir *repDirectory

	mu  sync.Mutex
	mbs map[string]*mbConn

	// waiters blocks WaitForMB callers per name. It rides its own small
	// lock rather than mu: a registration storm (many MBs connecting,
	// many callers waiting) otherwise serializes waiter churn against
	// every connection-table access. The no-lost-wakeup protocol is
	// strictly ordered: WaitForMB inserts its waiter under waitMu and
	// only then checks mbs; registration inserts into mbs and only then
	// drains waiters — whichever runs second sees the other's write.
	waitMu  sync.Mutex
	waiters map[string][]chan struct{}

	introMu   sync.Mutex
	introSubs []func(mb string, ev *sbi.Event)

	// peerMu guards the peer mesh and what a peer hello announces.
	peerMu    sync.Mutex
	tr        sbi.Transport
	advertise string
	peers     map[string]*peerConn // live links, by remote node name
	known     map[string]string    // every non-departed node ever seen (name → addr), self excluded

	closed atomic.Bool

	// Metrics.
	movesStarted    atomic.Uint64
	eventsForwarded atomic.Uint64
	eventsBuffered  atomic.Uint64
	chunksMoved     atomic.Uint64
	bytesMoved      atomic.Uint64
	pingsSent       atomic.Uint64
	pongsRecv       atomic.Uint64
	heartbeatDeaths atomic.Uint64
	dirCommits      atomic.Uint64
	dirRefusals     atomic.Uint64
	peerReconnects  atomic.Uint64
	pulls           atomic.Uint64
	// dirMissRetries counts findRetry lookups that found the name
	// unregistered and had to wait for it.
	dirMissRetries atomic.Uint64

	// Operation-window latency histograms (zero-alloc record path; see
	// internal/obs): the whole move window (freeze -> transfer -> switch,
	// i.e. a move's transaction start to last put ACK), each southbound get
	// stream, and each put-ACK round trip.
	histMove obs.Histogram
	histGet  obs.Histogram
	histPut  obs.Histogram
}

// NewController creates a one-node cluster named "node" with the given
// options.
func NewController(opts Options) *Controller {
	return NewNode(NodeOptions{Cluster: ClusterOptions{Controller: opts}})
}

// Shards reports the resolved router shard count (after defaulting and
// power-of-two rounding).
func (c *Controller) Shards() int { return c.opts.Shards }

// Serve starts accepting middlebox and peer connections on addr over the
// given transport. It returns once the listener is ready; accepting
// continues in the background until Close.
func (c *Controller) Serve(tr sbi.Transport, addr string) error {
	l, err := tr.Listen(addr)
	if err != nil {
		return fmt.Errorf("core: listen %q: %w", addr, err)
	}
	// Set before the accept loop starts: a peer hello is answered with it.
	c.peerMu.Lock()
	c.tr = tr
	if c.advertise == "" {
		c.advertise = l.Addr().String()
	}
	c.peerMu.Unlock()
	c.mu.Lock()
	c.listener = l
	c.mu.Unlock()
	go c.acceptLoop(l)
	return nil
}

func (c *Controller) acceptLoop(l net.Listener) {
	for {
		raw, err := l.Accept()
		if err != nil {
			return
		}
		go c.handleConn(sbi.NewConn(raw))
	}
}

func (c *Controller) handleConn(conn *sbi.Conn) {
	// Bound the hello wait: a peer that connects and then stalls (or sends
	// a truncated hello) must time out, not pin this goroutine forever.
	_ = conn.SetReadDeadline(time.Now().Add(c.opts.HelloTimeout))
	hello, err := conn.Receive()
	if err != nil || hello.Type != sbi.MsgHello || hello.Name == "" {
		conn.Close()
		return
	}
	_ = conn.SetReadDeadline(time.Time{})
	c.admit(conn, hello)
}

// serveMB upgrades the connection to the hello's codec, registers the
// middlebox, and runs its read loop until disconnect. The admission step
// calls it once the registration has committed ownership.
func (c *Controller) serveMB(conn *sbi.Conn, hello *sbi.Message) {
	// The hello (always JSON) may announce a faster codec for everything
	// after it; the controller's side of the connection follows suit.
	if err := conn.Upgrade(hello.Codec); err != nil {
		// Not registered yet, so this goroutine is the connection's only
		// sender: the Send flushes its own frame before the Close.
		_ = conn.Send(&sbi.Message{Type: sbi.MsgError, Error: err.Error()})
		conn.Close()
		return
	}
	mb := newMBConn(hello.Name, hello.Kind, conn, c)
	// The hello's Batch announces the largest events[] batch the middlebox
	// is willing to receive per reprocess frame (0/1: the per-event framing
	// peers that predate event batching expect).
	mb.eventBatch = hello.Batch
	if !c.register(mb) {
		conn.Close()
		return
	}
	mb.eventWG.Add(1)
	go mb.eventRouter()
	if c.opts.HeartbeatInterval > 0 {
		mb.pingWG.Add(1)
		go mb.heartbeat(c)
	}
	err := mb.readLoop()
	close(mb.pingStop)
	mb.pingWG.Wait()
	// The MB disconnected: drain the event router (queued events route
	// against whatever transactions remain — the purge below cleans up),
	// fail outstanding calls with the reason, drop the routing state, and
	// deregister.
	close(mb.eventQ)
	mb.eventWG.Wait()
	mb.failAll(fmt.Errorf("middlebox disconnected: %w", err))
	c.router.purgeMB(mb)
	c.mu.Lock()
	if c.mbs[mb.name] == mb {
		delete(c.mbs, mb.name)
	}
	c.mu.Unlock()
}

// register adds mb to the connection table and wakes its name's waiters;
// it reports false on a duplicate name.
func (c *Controller) register(mb *mbConn) bool {
	c.mu.Lock()
	if _, dup := c.mbs[mb.name]; dup {
		c.mu.Unlock()
		return false
	}
	c.mbs[mb.name] = mb
	c.mu.Unlock()
	c.wakeWaiters(mb.name)
	return true
}

// wakeWaiters releases every WaitForMB call blocked on name. Called after
// the mbs insert, per the waiter-ordering protocol (see the waiters field).
func (c *Controller) wakeWaiters(name string) {
	c.waitMu.Lock()
	waiters := c.waiters[name]
	delete(c.waiters, name)
	c.waitMu.Unlock()
	for _, w := range waiters {
		close(w)
	}
}

// Addr returns the listener's address (useful with ":0" listens), or ""
// before Serve.
func (c *Controller) Addr() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.listener == nil {
		return ""
	}
	return c.listener.Addr().String()
}

// WaitForMB blocks until a middlebox named name has registered, or the
// timeout elapses. Waiters are keyed by name, so a registration wakes only
// the callers waiting for that middlebox.
func (c *Controller) WaitForMB(name string, timeout time.Duration) error {
	// Fast path: already registered — no waiter-registry traffic, so the
	// common case stays allocation-free.
	c.mu.Lock()
	_, ok := c.mbs[name]
	c.mu.Unlock()
	if ok {
		return nil
	}
	deadline := time.Now().Add(timeout)
	for {
		// Insert the waiter BEFORE re-checking the table: if the MB
		// registers between the check and the wait, its wake drains the
		// already-inserted waiter (registration inserts into mbs first,
		// then wakes — the mirrored order).
		w := make(chan struct{})
		c.waitMu.Lock()
		c.waiters[name] = append(c.waiters[name], w)
		c.waitMu.Unlock()
		c.mu.Lock()
		_, ok := c.mbs[name]
		c.mu.Unlock()
		if ok {
			c.dropWaiter(name, w)
			return nil
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			c.dropWaiter(name, w)
			return fmt.Errorf("core: middlebox %q did not register", name)
		}
		select {
		case <-w:
			// Woken by a registration of this name; loop re-checks (the
			// MB may already have disconnected again).
		case <-time.After(remain):
			c.dropWaiter(name, w)
			return fmt.Errorf("core: middlebox %q did not register", name)
		}
	}
}

// dropWaiter removes one waiter channel without waking it, so abandoned
// waits (timeouts, immediate hits) do not accumulate under the name.
func (c *Controller) dropWaiter(name string, w chan struct{}) {
	c.waitMu.Lock()
	defer c.waitMu.Unlock()
	ws := c.waiters[name]
	for i := range ws {
		if ws[i] == w {
			ws[i] = ws[len(ws)-1]
			c.waiters[name] = ws[:len(ws)-1]
			break
		}
	}
	if len(c.waiters[name]) == 0 {
		delete(c.waiters, name)
	}
}

// Middleboxes returns the names of registered middleboxes.
func (c *Controller) Middleboxes() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.mbs))
	for n := range c.mbs {
		names = append(names, n)
	}
	return names
}

func (c *Controller) mb(name string) (*mbConn, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	mb, ok := c.mbs[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown middlebox %q", name)
	}
	return mb, nil
}

// SubscribeIntrospection registers fn to receive introspection events from
// all middleboxes. Enable generation per-MB with SetEventFilter.
func (c *Controller) SubscribeIntrospection(fn func(mb string, ev *sbi.Event)) {
	c.introMu.Lock()
	defer c.introMu.Unlock()
	c.introSubs = append(c.introSubs, fn)
}

// SetEventFilter enables or disables introspection events on a middlebox
// for an event-code prefix and flow match (§4.2.2).
func (c *Controller) SetEventFilter(mbName, codePrefix string, m packet.FieldMatch, enable bool) error {
	return c.SetEventFilterFor(mbName, codePrefix, m, enable, 0)
}

// SetEventFilterFor is SetEventFilter with a bounded lifetime: the filter
// expires after ttl (0 means no expiry). This is §4.2.2's overload
// protection — "receive all events only for a limited period of time".
func (c *Controller) SetEventFilterFor(mbName, codePrefix string, m packet.FieldMatch, enable bool, ttl time.Duration) error {
	_, err := c.call(mbName, &sbi.Message{
		Type: sbi.MsgRequest, Op: sbi.OpSetEventFilter,
		Path: codePrefix, Match: m, Enable: enable, TTLNanos: int64(ttl),
	})
	return err
}

// WaitTxns blocks until no transaction is live, or the timeout elapses: every
// transaction's data phase and quiet-period completion have finished and its
// routing is released. Intended for tests, benchmarks and graceful shutdown.
func (c *Controller) WaitTxns(timeout time.Duration) bool {
	select {
	case <-c.registry.idleCh():
		return true
	case <-time.After(timeout):
		return false
	}
}

// Metrics is a snapshot of controller counters.
type Metrics struct {
	MovesStarted    uint64
	EventsForwarded uint64
	EventsBuffered  uint64
	ChunksMoved     uint64
	BytesMoved      uint64
	// PingsSent counts liveness probes issued; PongsReceived the done
	// frames that came back marked Op=pong (pre-pong peers answer with
	// unmarked frames, which prove life but are not counted here);
	// HeartbeatDeaths counts connections closed for exceeding the miss
	// threshold.
	PingsSent       uint64
	PongsReceived   uint64
	HeartbeatDeaths uint64
}

// Metrics returns a snapshot of the controller's counters.
func (c *Controller) Metrics() Metrics {
	return Metrics{
		MovesStarted:    c.movesStarted.Load(),
		EventsForwarded: c.eventsForwarded.Load(),
		EventsBuffered:  c.eventsBuffered.Load(),
		ChunksMoved:     c.chunksMoved.Load(),
		BytesMoved:      c.bytesMoved.Load(),
		PingsSent:       c.pingsSent.Load(),
		PongsReceived:   c.pongsRecv.Load(),
		HeartbeatDeaths: c.heartbeatDeaths.Load(),
	}
}

// ConnCounters returns each registered middlebox connection's wire counters
// (frames sent/received, flushes), keyed by middlebox name. Each entry is a
// per-connection atomic snapshot; entries are taken one after another, so a
// consumer must not correlate counters ACROSS connections from one call —
// the elastic placement loop scores each connection against its own
// previous sample, which is why per-entry coherence suffices.
func (c *Controller) ConnCounters() map[string]sbi.Counters {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]sbi.Counters, len(c.mbs))
	for name, mb := range c.mbs {
		out[name] = mb.conn.Counters()
	}
	return out
}

// OpLatencies returns snapshots of the controller's operation-window
// histograms: the move window, southbound get streams, and put-ACK round
// trips. Eval reports and tests read percentiles from these.
func (c *Controller) OpLatencies() (move, get, put obs.HistogramSnapshot) {
	return c.histMove.Snapshot(), c.histGet.Snapshot(), c.histPut.Snapshot()
}

// LiveTxns reports how many transactions are in flight; zero after WaitTxns
// returns true. Tests use it to prove failed and aborted operations leak
// nothing.
func (c *Controller) LiveTxns() int { return c.registry.Live() }

// Collect implements obs.Collector: controller and node-layer counters, the
// three operation-window histograms, and per-connection wire counters.
func (c *Controller) Collect(e *obs.Emitter) {
	m := c.Metrics()
	e.Counter("openmb_moves_started_total", "State-move transactions started.", m.MovesStarted)
	e.Counter("openmb_events_forwarded_total", "Reprocess events forwarded to move destinations.", m.EventsForwarded)
	e.Counter("openmb_events_buffered_total", "Reprocess events buffered awaiting a put ACK.", m.EventsBuffered)
	e.Counter("openmb_state_chunks_moved_total", "State chunks transferred between middleboxes.", m.ChunksMoved)
	e.Counter("openmb_state_bytes_moved_total", "State bytes transferred between middleboxes.", m.BytesMoved)
	e.Counter("openmb_heartbeat_pings_sent_total", "Liveness probes sent on idle connections.", m.PingsSent)
	e.Counter("openmb_heartbeat_pongs_received_total", "Pong-marked done frames received.", m.PongsReceived)
	e.Counter("openmb_heartbeat_deaths_total", "Connections closed for missing the heartbeat deadline.", m.HeartbeatDeaths)
	e.Histogram("openmb_move_duration_seconds", "Move window: freeze through transfer to last put ACK.", &c.histMove)
	e.Histogram("openmb_get_duration_seconds", "Southbound get stream duration (first request to done).", &c.histGet)
	e.Histogram("openmb_put_ack_duration_seconds", "Put round trip: request to installation ACK.", &c.histPut)
	e.Counter("openmb_node_dir_commits_total", "Replicated-directory ownership changes committed under quorum.", c.dirCommits.Load())
	e.Counter("openmb_node_dir_refusals_total", "Ownership changes refused for lack of quorum (partitioned minority).", c.dirRefusals.Load())
	e.Counter("openmb_node_peer_reconnects_total", "Peer links re-established after loss.", c.peerReconnects.Load())
	e.Counter("openmb_node_pulls_total", "Middleboxes pulled from other nodes.", c.pulls.Load())
	e.Counter("openmb_directory_miss_retries_total", "Northbound lookups that found a middlebox name unregistered and waited for it.", c.dirMissRetries.Load())

	c.mu.Lock()
	type connRow struct {
		name string
		wc   sbi.Counters
	}
	rows := make([]connRow, 0, len(c.mbs))
	for name, mb := range c.mbs {
		rows = append(rows, connRow{name, mb.conn.Counters()})
	}
	c.mu.Unlock()
	e.Gauge("openmb_mbs_registered", "Middlebox connections currently registered.", float64(len(rows)))
	for _, r := range rows {
		lbl := []string{"conn", r.name, "side", "controller"}
		e.Counter("openmb_conn_sent_frames_total", "SBI frames sent on the southbound connection.", r.wc.Sent, lbl...)
		e.Counter("openmb_conn_received_frames_total", "SBI frames received on the southbound connection.", r.wc.Received, lbl...)
		e.Counter("openmb_conn_flushes_total", "Transport flushes on the southbound connection.", r.wc.Flushes, lbl...)
	}
}

// Close stops the node: peer links, then the accept loop and every
// middlebox connection. Peers are NOT notified (that is Shutdown) — a
// closed-without-leave node stays in its peers' quorum denominators, like a
// crash.
func (c *Controller) Close() {
	if !c.closed.CompareAndSwap(false, true) {
		return
	}
	for _, p := range c.peerLinks() {
		p.close()
	}
	c.mu.Lock()
	l := c.listener
	mbs := make([]*mbConn, 0, len(c.mbs))
	for _, mb := range c.mbs {
		mbs = append(mbs, mb)
	}
	c.mu.Unlock()
	if l != nil {
		l.Close()
	}
	for _, mb := range mbs {
		mb.conn.Close()
	}
	// Armed completions dispatch immediately, and later ones as they arm;
	// their southbound calls fail fast on the closed connections.
	for _, t := range c.registry.snapshot() {
		t.flush()
	}
}

// mbConn is the controller's view of one connected middlebox. The paper's
// prototype dedicates one thread per MB to operations and one to events;
// here a single reader goroutine dispatches responses to per-call channels
// and events to the sharded transaction router. Routing state, per-flow and
// shared, lives in the controller's router (see router.go); the connection
// itself keeps only a live-transaction count.
type mbConn struct {
	name string
	kind string
	conn *sbi.Conn
	// eventBatch is the largest events[] batch this middlebox accepts per
	// reprocess frame, from its hello announcement (immutable after
	// registration); <= 1 keeps the per-event framing.
	eventBatch int

	// ctrl is the controller that registered the connection and owns its
	// routing state.
	ctrl *Controller

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]*call

	// eventQ hands MsgEvent frames from the read loop to the connection's
	// event-router goroutine (see eventRouter). Routing off the read loop
	// keeps chunk streams and ACKs flowing at wire speed while an event
	// burst is being routed — with the coalesced wire path a source can
	// legitimately have thousands of events in flight, and routing them
	// inline would head-of-line-block the move pipeline behind them
	// (stretching the move window, which raises yet more events). The
	// queue is bounded: a router that falls behind backpressures the read
	// loop.
	eventQ  chan *sbi.Message
	eventWG sync.WaitGroup
	// eventsRecv counts events the read loop has accepted off the wire;
	// eventsRouted counts events the router has finished routing. Their
	// difference is the connection's in-flight event pipeline, and
	// transaction quiescence requires it to be empty: with routing
	// decoupled from receiving, "no events for a quiet period" must mean
	// no events *anywhere*, or a descheduled router would let a
	// completion timer end a transaction whose count-bearing events are
	// still queued (clearing source marks early and orphaning the replays).
	eventsRecv   atomic.Uint64
	eventsRouted atomic.Uint64
	// drained holds a token the event router posts whenever the pipeline
	// empties; drainEvents waits on it instead of polling.
	drained chan struct{}

	// lastRecv is the unix-nano time of the last frame received on this
	// connection — any frame: data, ACKs, events, and ping replies all
	// prove liveness, so heartbeats only probe genuinely idle links.
	lastRecv atomic.Int64
	// pingStop ends the heartbeat goroutine when the read loop exits;
	// pingWG lets serveMB join it before tearing the connection down.
	pingStop chan struct{}
	pingWG   sync.WaitGroup

	// liveTxns counts transactions with this MB as their source; when it
	// drops to zero the router discards the MB's orphaned events.
	liveTxns atomic.Int64
}

// eventQueueDepth bounds frames queued between a connection's read loop
// and its event router. Deep enough to absorb a coalescing window's burst
// (a few full frames), shallow enough that a routing backlog promptly
// backpressures the source — the depth is also the worst-case
// head-of-line wait for a chunk frame arriving behind queued events (the
// read loop blocks on admission when the queue is full), so a deep queue
// lets a saturating event firehose stretch a concurrent get stream from
// seconds into minutes.
const eventQueueDepth = 32

// newMBConn builds controller c's view of one middlebox connection.
func newMBConn(name, kind string, conn *sbi.Conn, c *Controller) *mbConn {
	mb := &mbConn{
		name: name, kind: kind, conn: conn, ctrl: c,
		pending:  map[uint64]*call{},
		eventQ:   make(chan *sbi.Message, eventQueueDepth),
		drained:  make(chan struct{}, 1),
		pingStop: make(chan struct{}),
	}
	mb.lastRecv.Store(time.Now().UnixNano())
	return mb
}

// heartbeat probes this connection's liveness on behalf of its controller.
// Each tick it measures how long the link has been silent: past one
// interval it sends an OpPing — fire-and-forget, from a short-lived
// goroutine so a peer that has stopped reading (blocking our write) cannot
// wedge the liveness clock — and past HeartbeatMisses intervals it closes
// the connection, which unblocks any stuck ping write and drives the normal
// disconnect cleanup in serveMB. The pong is a done frame marked Op=pong
// (counted in pongsRecv), but the prober does not require the marker: a
// plain done from a pre-pong middlebox, or an unknown-op error from a
// pre-heartbeat peer, is equally alive. Either way the read loop stamps
// lastRecv, so the probe needs no completion tracking.
func (mb *mbConn) heartbeat(c *Controller) {
	defer mb.pingWG.Done()
	interval := c.opts.HeartbeatInterval
	deadAfter := time.Duration(c.opts.HeartbeatMisses) * interval
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-mb.pingStop:
			return
		case <-ticker.C:
		}
		idle := time.Duration(time.Now().UnixNano() - mb.lastRecv.Load())
		if idle >= deadAfter {
			c.heartbeatDeaths.Add(1)
			mb.conn.Close()
			return
		}
		if idle >= interval {
			c.pingsSent.Add(1)
			// At most HeartbeatMisses-1 of these can pile up on a dead
			// peer before the close above releases them all.
			go func() {
				_ = mb.conn.Send(&sbi.Message{Type: sbi.MsgRequest, Op: sbi.OpPing})
			}()
		}
	}
}

// eventRouter drains eventQ, routing each frame's events in arrival (seq)
// order. One goroutine per connection, so per-source FIFO ordering — the
// §4.2.1 buffer-until-ACK argument's foundation — is preserved exactly as
// if the read loop still routed inline. Forwarding from here cannot
// deadlock: reprocess forwards target middlebox runtimes, which consume
// their southbound stream unconditionally.
func (mb *mbConn) eventRouter() {
	defer mb.eventWG.Done()
	for m := range mb.eventQ {
		// EachEvent covers both wire forms (and their illegal-but-
		// decodable combination), matching the EventCount the read loop
		// charged into eventsRecv.
		m.EachEvent(mb.routeEvent)
		// Routed only after every event in the frame has touched its
		// transaction's quiet clock, so a quiescence check can never see
		// the pipeline empty while a touch is still pending.
		mb.eventsRouted.Add(uint64(m.EventCount()))
		if mb.eventsInFlight() == 0 {
			mb.signalDrained()
		}
	}
}

// signalDrained posts the drained token unless one is already waiting.
func (mb *mbConn) signalDrained() {
	select {
	case mb.drained <- struct{}{}:
	default:
	}
}

// eventsInFlight reports how many received events are still queued for (or
// mid-) routing. Reading routed before recv keeps the result conservative:
// a racing arrival can only make the pipeline look busier, never empty.
func (mb *mbConn) eventsInFlight() uint64 {
	routed := mb.eventsRouted.Load()
	return mb.eventsRecv.Load() - routed
}

// drainEvents waits until every event frame received from this connection
// has been routed (bounded by timeout). Transaction completion uses it
// between the mark-clearing ack and the detach: the source guarantees all
// events it raised under the old marks are on the wire ahead of the ack,
// and the read loop has charged them into eventsRecv before delivering the
// ack — but routing happens on the connection's eventRouter goroutine, so
// without this wait the detach could still outrun the router and orphan
// the transaction's final events. The router posts a token after the count
// that empties the pipeline, so a waiter that saw an event in flight finds
// it; one that sees the pipeline empty passes it on to the next waiter.
func (mb *mbConn) drainEvents(timeout time.Duration) {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for mb.eventsInFlight() > 0 {
		select {
		case <-mb.drained:
		case <-deadline.C:
			return
		}
	}
	mb.signalDrained()
}

// call is one outstanding request. Streaming responses (get chunks) are
// delivered through ch before the final done/error message. For gets that
// are part of a transaction, txn is set so the read loop can register
// streamed keys (sbi.Message.Keys) before any later event is dispatched. err
// records why the call was aborted; it is written before ch closes, so the
// channel close publishes it to the waiter.
type call struct {
	ch  chan *sbi.Message
	txn *txn
	err error

	// delivering serializes the read loop's delivery against dropCall:
	// dropCall takes it after removing the call from pending, and dropped
	// tells a delivery that looked the call up just before it left pending
	// to stand down. Without it, a chunk of a get stream that arrived as
	// the stream ended could register its keys with the stream's
	// transaction after detach has released them, leaving router entries
	// nothing would ever remove.
	delivering sync.Mutex
	dropped    bool
}

// newCall registers a request that can have depth replies undelivered: a
// call's one, or a stream's window plus its done.
func (mb *mbConn) newCall(t *txn, depth int) (uint64, *call) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	mb.nextID++
	id := mb.nextID
	cl := &call{ch: make(chan *sbi.Message, depth), txn: t}
	mb.pending[id] = cl
	return id, cl
}

func (mb *mbConn) dropCall(id uint64) {
	mb.mu.Lock()
	cl := mb.pending[id]
	delete(mb.pending, id)
	mb.mu.Unlock()
	if cl == nil {
		return // taken over by failAll or overrun
	}
	// Barrier: once it is taken, no delivery for the call is in progress
	// and none will start (see call.delivering).
	cl.delivering.Lock()
	cl.dropped = true
	cl.delivering.Unlock()
}

// failAll aborts every outstanding call, recording err as the reason each
// waiter observes.
func (mb *mbConn) failAll(err error) {
	mb.mu.Lock()
	pend := mb.pending
	mb.pending = map[uint64]*call{}
	mb.mu.Unlock()
	for _, cl := range pend {
		cl.err = err
		close(cl.ch)
	}
}

var errOverrun = errors.New("middlebox sent past its window")

// overrun fails a call whose peer sent more than it can hold undelivered,
// as failAll would, unless failAll or dropCall took it first.
func (mb *mbConn) overrun(id uint64, cl *call) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	if mb.pending[id] == cl {
		delete(mb.pending, id)
		cl.err = errOverrun
		close(cl.ch)
	}
}

// abortErr renders the error a waiter reports when its call channel closed:
// the recorded disconnect reason when there is one.
func (mb *mbConn) abortErr(cl *call, op sbi.Op) error {
	if cl.err != nil {
		return fmt.Errorf("core: %s %s: %w", mb.name, op, cl.err)
	}
	return fmt.Errorf("core: %s disconnected during %s", mb.name, op)
}

func (mb *mbConn) readLoop() error {
	for {
		m, err := mb.conn.Receive()
		if err != nil {
			return err
		}
		mb.lastRecv.Store(time.Now().UnixNano())
		switch m.Type {
		case sbi.MsgEvent:
			// Count the events in before queueing them (quiescence reads
			// recv before routed, so the pipeline can never look empty
			// with this frame in it), then hand the frame to the event
			// router; blocking when the router is eventQueueDepth frames
			// behind is the intended backpressure.
			mb.eventsRecv.Add(uint64(m.EventCount()))
			mb.eventQ <- m
		case sbi.MsgChunk, sbi.MsgDone, sbi.MsgError:
			if m.Op == sbi.OpPong {
				// Pong-marked heartbeat reply. Pings are fire-and-forget
				// (no request ID), so the pending lookup below finds
				// nothing and skips it — exactly what a pre-pong
				// controller did with the unmarked reply.
				mb.ctrl.pongsRecv.Add(1)
			}
			mb.mu.Lock()
			cl := mb.pending[m.ID]
			mb.mu.Unlock()
			if cl == nil {
				continue
			}
			cl.delivering.Lock()
			if !cl.dropped {
				if m.Type == sbi.MsgChunk && cl.txn != nil {
					// Register on the read loop, so any later
					// event for these keys finds the transaction.
					m.Keys = chunkKeys(m)
					cl.txn.registerFrame(m.Keys)
				}
				// Never blocks: a call's channel holds its reply, a
				// stream's its window plus the done. A peer past that
				// fails its call instead of stalling this loop.
				select {
				case cl.ch <- m:
				default:
					mb.overrun(m.ID, cl)
				}
			}
			cl.delivering.Unlock()
		}
	}
}

// call sends a request and waits for its single done/error reply.
func (mb *mbConn) call(req *sbi.Message, timeout time.Duration) (*sbi.Message, error) {
	id, cl := mb.newCall(nil, 1)
	defer mb.dropCall(id)
	req.ID = id
	if err := mb.conn.Send(req); err != nil {
		// Usually a dead connection, but the binary codec also rejects
		// unencodable frames here — keep the underlying error visible.
		return nil, fmt.Errorf("core: %s %s: send failed (middlebox disconnected?): %w", mb.name, req.Op, err)
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	select {
	case m, ok := <-cl.ch:
		if !ok {
			return nil, mb.abortErr(cl, req.Op)
		}
		if m.Type == sbi.MsgError {
			return nil, fmt.Errorf("core: %s %s: %s", mb.name, req.Op, m.Error)
		}
		return m, nil
	case <-deadline.C:
		return nil, fmt.Errorf("core: %s %s timed out", mb.name, req.Op)
	}
}

// stream sends a get request and invokes onChunk for each streamed chunk
// until the final done (returning its Count) or an error. If t is non-nil,
// the read loop registers each chunk's keys with t before delivery, so that
// events behind the chunk on the wire always find the transaction, and
// stores them in the frame's Keys. A windowed get's consumer returns its
// credit, and the stream ends by cancelling the get: one that ended first
// may be waiting for credit that will never come.
func (mb *mbConn) stream(t *txn, req *sbi.Message, timeout time.Duration, onChunk func(m *sbi.Message) error) (int, error) {
	id, cl := mb.newCall(t, req.Window+1)
	defer mb.dropCall(id)
	req.ID = id
	if err := mb.conn.Send(req); err != nil {
		return 0, fmt.Errorf("core: %s %s: send failed (middlebox disconnected?): %w", mb.name, req.Op, err)
	}
	if req.Window > 0 {
		defer mb.conn.Send(&sbi.Message{Type: sbi.MsgRequest, Op: sbi.OpCredit, ID: id})
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		select {
		case m, ok := <-cl.ch:
			if !ok {
				return 0, mb.abortErr(cl, req.Op)
			}
			switch m.Type {
			case sbi.MsgChunk:
				if err := onChunk(m); err != nil {
					return 0, err
				}
			case sbi.MsgDone:
				return m.Count, nil
			case sbi.MsgError:
				return 0, fmt.Errorf("core: %s %s: %s", mb.name, req.Op, m.Error)
			}
		case <-deadline.C:
			return 0, fmt.Errorf("core: %s %s timed out", mb.name, req.Op)
		}
	}
}
