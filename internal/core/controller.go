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

// Controller is the OpenMB middlebox controller.
type Controller struct {
	opts     Options
	listener net.Listener

	// router shards transaction routing state (see router.go); completer
	// finishes quiescent transactions (see completer.go).
	router    *txnRouter
	completer *completer

	// registry tracks live transactions under cluster-wide IDs; a Cluster
	// replaces it with one shared across replicas (before any txn exists).
	registry *txnRegistry

	// failed marks a cluster replica declared dead by FailReplica. New
	// northbound transactions refuse to start here (ErrReplicaFailed);
	// everything already migrated runs on the survivors.
	failed atomic.Bool

	mu  sync.Mutex
	mbs map[string]*mbConn

	// flusher is the cross-connection flush scheduler: southbound frames
	// (requests, pings, reprocess forwards) encode deferred and one
	// goroutine flushes every dirty connection per pass. See flusher.go.
	flusher *connFlusher

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

	// clustered marks this controller as a replica of a multi-replica
	// Cluster (set once, before Serve). Connections owned by a lone
	// controller — or a replicas=1 cluster — can never be handed off, so
	// their routing paths skip the handoff freeze lock entirely and run
	// the exact pre-cluster fast path.
	clustered bool

	txnWG sync.WaitGroup

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

	// Operation-window latency histograms (zero-alloc record path; see
	// internal/obs): the whole move window (freeze -> transfer -> switch,
	// i.e. moveConns start to last put ACK), each southbound get stream,
	// and each put-ACK round trip.
	histMove obs.Histogram
	histGet  obs.Histogram
	histPut  obs.Histogram
}

// NewController creates a controller with the given options.
func NewController(opts Options) *Controller {
	opts.setDefaults()
	c := &Controller{opts: opts, mbs: map[string]*mbConn{}, waiters: map[string][]chan struct{}{}}
	c.flusher = newConnFlusher()
	c.router = newTxnRouter(opts.Shards)
	c.completer = newCompleter(c)
	c.registry = newTxnRegistry()
	return c
}

// Shards reports the resolved router shard count (after defaulting and
// power-of-two rounding).
func (c *Controller) Shards() int { return c.opts.Shards }

// finishAfterQuiet arranges for fn to run, on the completer, once t's source
// has been quiet for the configured period.
func (c *Controller) finishAfterQuiet(t *txn, fn func()) {
	c.txnWG.Add(1)
	c.completer.schedule(t, func() {
		defer c.txnWG.Done()
		fn()
	})
}

// Serve starts accepting middlebox connections on addr over the given
// transport. It returns once the listener is ready; accepting continues in
// the background until Close.
func (c *Controller) Serve(tr sbi.Transport, addr string) error {
	l, err := tr.Listen(addr)
	if err != nil {
		return fmt.Errorf("core: listen %q: %w", addr, err)
	}
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
	c.serveMB(conn, hello)
}

// serveMB upgrades the connection to the hello's codec, registers the
// middlebox, and runs its read loop until disconnect. The single-controller
// accept path calls it after receiving the hello itself; a Cluster receives
// the hello in its own accept loop (to consult the directory) and hands the
// connection to the owning replica here.
func (c *Controller) serveMB(conn *sbi.Conn, hello *sbi.Message) {
	// The hello (always JSON) may announce a faster codec for everything
	// after it; the controller's side of the connection follows suit.
	if err := conn.Upgrade(hello.Codec); err != nil {
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
	// deregister — from whichever replica owns it now. The handoff
	// read-lock serializes this cleanup against a concurrent ownership
	// transfer, so the purge and the deregistration hit the same
	// controller and a transfer can never resurrect state for a
	// connection that is already gone.
	close(mb.eventQ)
	mb.eventWG.Wait()
	mb.failAll(fmt.Errorf("middlebox disconnected: %w", err))
	mb.routingLock()
	cur := mb.controller()
	cur.router.purgeMB(mb)
	cur.mu.Lock()
	if cur.mbs[mb.name] == mb {
		delete(cur.mbs, mb.name)
	}
	cur.mu.Unlock()
	mb.routingUnlock()
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
	// Fast path: already registered — no waiter-registry traffic. (The
	// Cluster polls this in short slices, so the common case must stay
	// allocation-free.)
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
	mb, err := c.mb(mbName)
	if err != nil {
		return err
	}
	return c.setEventFilterConn(mb, codePrefix, m, enable, ttl)
}

func (c *Controller) setEventFilterConn(mb *mbConn, codePrefix string, m packet.FieldMatch, enable bool, ttl time.Duration) error {
	_, err := mb.call(&sbi.Message{
		Type: sbi.MsgRequest, Op: sbi.OpSetEventFilter,
		Path: codePrefix, Match: m, Enable: enable, TTLNanos: int64(ttl),
	}, c.opts.CallTimeout)
	return err
}

// WaitTxns blocks until all in-flight transactions (including their
// quiet-period completions) have finished, or the timeout elapses. Intended
// for tests and benchmarks that need deterministic completion.
func (c *Controller) WaitTxns(timeout time.Duration) bool {
	done := make(chan struct{})
	go func() {
		c.txnWG.Wait()
		close(done)
	}()
	select {
	case <-done:
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

// Collect implements obs.Collector: controller counters, the three
// operation-window histograms, and per-connection wire counters.
func (c *Controller) Collect(e *obs.Emitter) { c.collect(e) }

// collect emits the controller's series with extra label pairs appended
// (Cluster.Collect uses this to tag each replica).
func (c *Controller) collect(e *obs.Emitter, labels ...string) {
	m := c.Metrics()
	e.Counter("openmb_moves_started_total", "State-move transactions started.", m.MovesStarted, labels...)
	e.Counter("openmb_events_forwarded_total", "Reprocess events forwarded to move destinations.", m.EventsForwarded, labels...)
	e.Counter("openmb_events_buffered_total", "Reprocess events buffered awaiting a put ACK.", m.EventsBuffered, labels...)
	e.Counter("openmb_state_chunks_moved_total", "State chunks transferred between middleboxes.", m.ChunksMoved, labels...)
	e.Counter("openmb_state_bytes_moved_total", "State bytes transferred between middleboxes.", m.BytesMoved, labels...)
	e.Counter("openmb_heartbeat_pings_sent_total", "Liveness probes sent on idle connections.", m.PingsSent, labels...)
	e.Counter("openmb_heartbeat_pongs_received_total", "Pong-marked done frames received.", m.PongsReceived, labels...)
	e.Counter("openmb_heartbeat_deaths_total", "Connections closed for missing the heartbeat deadline.", m.HeartbeatDeaths, labels...)
	e.Histogram("openmb_move_duration_seconds", "Move window: freeze through transfer to last put ACK.", &c.histMove, labels...)
	e.Histogram("openmb_get_duration_seconds", "Southbound get stream duration (first request to done).", &c.histGet, labels...)
	e.Histogram("openmb_put_ack_duration_seconds", "Put round trip: request to installation ACK.", &c.histPut, labels...)

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
	e.Gauge("openmb_mbs_registered", "Middlebox connections currently registered.", float64(len(rows)), labels...)
	for _, r := range rows {
		lbl := append(append([]string(nil), labels...), "conn", r.name, "side", "controller")
		e.Counter("openmb_conn_sent_frames_total", "SBI frames sent on the southbound connection.", r.wc.Sent, lbl...)
		e.Counter("openmb_conn_received_frames_total", "SBI frames received on the southbound connection.", r.wc.Received, lbl...)
		e.Counter("openmb_conn_flushes_total", "Transport flushes on the southbound connection.", r.wc.Flushes, lbl...)
	}
}

// Close stops the accept loop and disconnects all middleboxes.
func (c *Controller) Close() {
	if !c.closed.CompareAndSwap(false, true) {
		return
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
	// The flush scheduler stops after the connections close: its final
	// pass drains whatever was marked dirty (flushes on closed conns fail
	// harmlessly), and later senders fall back to inline flushes.
	c.flusher.close()
	// Stop the completer last: pending completions dispatch immediately
	// and their southbound calls fail fast on the closed connections.
	c.completer.close()
}

// mbConn is the controller's view of one connected middlebox. The paper's
// prototype dedicates one thread per MB to operations and one to events;
// here a single reader goroutine dispatches responses to per-call channels
// and events to the sharded transaction router. Per-flow routing state lives
// in the controller's router (see router.go); the connection itself keeps
// only the shared-state owner and a live-transaction count.
type mbConn struct {
	name string
	kind string
	conn *sbi.Conn
	// eventBatch is the largest events[] batch this middlebox accepts per
	// reprocess frame, from its hello announcement (immutable after
	// registration); <= 1 keeps the per-event framing.
	eventBatch int

	// ctrl is the controller (cluster replica) that currently owns this
	// connection's routing state. A handoff retargets it; everything that
	// routes through the owner resolves it via controller() under
	// handoffMu, so a single-replica deployment pays one atomic load and
	// one uncontended read-lock on the event path.
	ctrl atomic.Pointer[Controller]

	// handoffMu freezes the connection's flowspace during an ownership
	// transfer. Every router access on behalf of this MB — event routing,
	// chunk registration, put ACKs, detach, disconnect purge — holds it
	// for read (via routingLock); Cluster handoff holds it for write while
	// it moves the routing state between replicas and swaps ctrl. Events
	// arriving during the freeze block in order on the connection's read
	// loop (the replica-scope analogue of a move's buffer-until-ACK
	// window) and drain against the new owner the moment the transfer
	// completes.
	handoffMu sync.RWMutex
	// noHandoff (immutable after construction) marks connections owned by
	// an un-clustered controller: no handoff can ever target them, so the
	// routing paths skip handoffMu.
	noHandoff bool

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]*call
	// chanFree recycles one-slot reply channels for this connection's
	// calls; see getCallChanLocked.
	chanFree []chan *sbi.Message

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
	// no events *anywhere*, or a descheduled router would let the
	// completer end a transaction whose count-bearing events are still
	// queued (clearing source marks early and orphaning the replays).
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

	// sharedTxn is the transaction that currently owns this MB's shared
	// state: at most one clone/merge per source runs at a time.
	sharedTxn atomic.Pointer[txn]
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

// newMBConn builds the controller's view of one middlebox connection, owned
// by c until a handoff moves it.
func newMBConn(name, kind string, conn *sbi.Conn, c *Controller) *mbConn {
	mb := &mbConn{
		name: name, kind: kind, conn: conn,
		pending:   map[uint64]*call{},
		eventQ:    make(chan *sbi.Message, eventQueueDepth),
		drained:   make(chan struct{}, 1),
		pingStop:  make(chan struct{}),
		noHandoff: !c.clustered,
	}
	mb.lastRecv.Store(time.Now().UnixNano())
	mb.ctrl.Store(c)
	return mb
}

// heartbeat probes this connection's liveness on behalf of the controller
// that registered it (which keeps the options and counters stable if a
// cluster handoff later moves the connection's routing state elsewhere).
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
				_ = mb.send(&sbi.Message{Type: sbi.MsgRequest, Op: sbi.OpPing})
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

// controller returns the replica that currently owns this connection.
func (mb *mbConn) controller() *Controller { return mb.ctrl.Load() }

// routingLock/routingUnlock take the connection's handoff freeze lock for
// read around one router operation. Un-clustered connections skip it: their
// owner can never change, so the pre-cluster fast path stays intact.
func (mb *mbConn) routingLock() {
	if !mb.noHandoff {
		mb.handoffMu.RLock()
	}
}

func (mb *mbConn) routingUnlock() {
	if !mb.noHandoff {
		mb.handoffMu.RUnlock()
	}
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

	// delivering serializes the read loop's delivery into ch against
	// dropCall's recycling of ch: dropCall takes it after removing the call
	// from pending, so once it holds the lock no sender references the
	// channel. dropped tells a sender that grabbed the call just before it
	// left pending to stand down.
	delivering sync.Mutex
	dropped    bool
}

// callChanPoolMax bounds how many idle channels one connection retains;
// the list naturally grows only to the connection's peak concurrent calls
// (the put pipeline depth plus a few).
const callChanPoolMax = 256

// getCallChanLocked pops a recycled one-slot reply channel (LIFO, which
// keeps reuse deterministic for the reuse-correctness tests) or allocates
// one. The free list is per connection and rides mb.mu — which newCall holds
// anyway — so recycling adds no cross-connection synchronization to the move
// path.
func (mb *mbConn) getCallChanLocked() chan *sbi.Message {
	if n := len(mb.chanFree); n > 0 {
		ch := mb.chanFree[n-1]
		mb.chanFree[n-1] = nil
		mb.chanFree = mb.chanFree[:n-1]
		return ch
	}
	return make(chan *sbi.Message, 1)
}

// putCallChan returns a drained, never-closed channel to the free list.
func (mb *mbConn) putCallChan(ch chan *sbi.Message) {
	mb.mu.Lock()
	if len(mb.chanFree) < callChanPoolMax {
		mb.chanFree = append(mb.chanFree, ch)
	}
	mb.mu.Unlock()
}

// newCall registers a request that can have depth replies undelivered: a
// call's one on a pooled channel, or a stream's window plus its done on a
// channel that dies with the stream.
func (mb *mbConn) newCall(t *txn, depth int) (uint64, *call) {
	mb.mu.Lock()
	defer mb.mu.Unlock()
	mb.nextID++
	id := mb.nextID
	cl := &call{txn: t}
	if depth > 1 {
		cl.ch = make(chan *sbi.Message, depth)
	} else {
		cl.ch = mb.getCallChanLocked()
	}
	mb.pending[id] = cl
	return id, cl
}

func (mb *mbConn) dropCall(id uint64) {
	mb.mu.Lock()
	cl := mb.pending[id]
	delete(mb.pending, id)
	mb.mu.Unlock()
	if cl == nil {
		// Taken over by failAll or overrun, which closed ch: a closed
		// channel can never be recycled, so it is simply dropped.
		return
	}
	// Barrier: a read-loop delivery that looked the call up before it left
	// pending may still hold ch. Taking delivering guarantees it has let go
	// before the channel is drained and recycled. Without this, a late
	// reply could surface on a recycled channel inside a different call.
	cl.delivering.Lock()
	cl.dropped = true
	cl.delivering.Unlock()
	if cap(cl.ch) > 1 {
		return // a stream's window-deep channel is not kept
	}
	select { // an unread reply: one at most, or the call would have failed
	case <-cl.ch:
	default:
	}
	mb.putCallChan(cl.ch)
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
				mb.controller().pongsRecv.Add(1)
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

// send routes one southbound frame through the owning replica's flush
// scheduler: the frame encodes immediately (deferred) and the connection is
// flushed on the scheduler's next pass, so concurrent senders across all
// connections share flushes instead of each paying its own.
func (mb *mbConn) send(m *sbi.Message) error {
	return mb.controller().flusher.send(mb.conn, m)
}

// call sends a request and waits for its single done/error reply.
func (mb *mbConn) call(req *sbi.Message, timeout time.Duration) (*sbi.Message, error) {
	id, cl := mb.newCall(nil, 1)
	defer mb.dropCall(id)
	req.ID = id
	if err := mb.send(req); err != nil {
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
		if m.ID != id {
			// Recycled-channel invariant: dropCall's barrier makes a
			// foreign reply on this channel impossible; failing loudly
			// beats silently completing with another call's result.
			return nil, fmt.Errorf("core: %s %s: reply %d leaked into call %d", mb.name, req.Op, m.ID, id)
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
	if err := mb.send(req); err != nil {
		return 0, fmt.Errorf("core: %s %s: send failed (middlebox disconnected?): %w", mb.name, req.Op, err)
	}
	if req.Window > 0 {
		defer mb.send(&sbi.Message{Type: sbi.MsgRequest, Op: sbi.OpCredit, ID: id})
	}
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		select {
		case m, ok := <-cl.ch:
			if !ok {
				return 0, mb.abortErr(cl, req.Op)
			}
			if m.ID != id {
				return 0, fmt.Errorf("core: %s %s: reply %d leaked into call %d", mb.name, req.Op, m.ID, id)
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
