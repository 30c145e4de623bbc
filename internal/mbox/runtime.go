package mbox

import (
	"sync"
	"sync/atomic"
	"time"

	"openmb/internal/obs"
	"openmb/internal/packet"
	"openmb/internal/sbi"
	"openmb/internal/state"
)

// Options configures a Runtime.
type Options struct {
	// QueueSize bounds the ingress packet queue (default 8192).
	QueueSize int
	// Codec selects the southbound wire codec, announced in the hello
	// frame (which itself is always JSON, so any controller can read the
	// announcement). Empty selects sbi.CodecBinary, the length-prefixed
	// binary fast path — the default now that both sides negotiate at
	// hello. sbi.CodecJSON keeps the paper's newline-delimited JSON, the
	// compatibility and debugging path.
	Codec sbi.Codec
	// Reconnect enables southbound resilience: when the controller
	// connection drops, the runtime redials with exponential backoff plus
	// deterministic jitter (seeded from the instance name, so a flap storm
	// of many runtimes does not thundering-herd the controller while each
	// runtime's own schedule stays reproducible) and resumes the session
	// by re-sending its hello. Runtime-held session state — transaction
	// marks, event filters, logic state — survives the reconnect; the
	// controller side rebuilds its routing view from the fresh
	// registration.
	Reconnect bool
	// ReconnectMin and ReconnectMax bound the backoff delay (defaults
	// 50 ms and 2 s).
	ReconnectMin, ReconnectMax time.Duration
}

// Runtime hosts one middlebox instance: its logic, its southbound
// connection, and its packet loop. It implements netsim.Endpoint so it can
// be attached directly to the simulated network.
type Runtime struct {
	name  string
	logic Logic
	// sealer encrypts exported state chunks with a key derived from the
	// logic's Kind, so all instances of one middlebox type share it and the
	// controller cannot inspect blobs.
	sealer *state.Sealer
	codec  sbi.Codec

	// ring is the ingress queue: live and replayed packets behind one
	// batched-wake ring (see ingressRing), drained by the single worker.
	ring      *ingressRing
	stop      chan struct{}
	stopOnce  sync.Once
	workersWG sync.WaitGroup

	outbox eventOutbox
	// eventsQueued counts events raised but not yet handed to the
	// transport; Drain waits for it so "drained" still means every raised
	// event is on the wire.
	eventsQueued atomic.Int64

	// pending counts queued plus in-process packets, for Drain.
	pending atomic.Int64

	// procSeq is the worker's packet parity clock: odd while a packet (or
	// burst) is between its mark check and its reprocess-event enqueue, even
	// between packets. syncEvents uses it to wait out the one in-flight
	// packet whose Touch may have seen marks a clearing op just removed.
	procSeq atomic.Uint64

	// forward receives each burst's emits in one call (SetForwardBurst,
	// or SetForward's per-packet adapter). Nil counts but discards.
	forwardMu sync.RWMutex
	forward   func(ps []*packet.Packet)

	// conn is the live southbound connection; tr and addrs remember how it
	// was dialed so the reconnect loop can redial. addrs is the candidate
	// controller list, preferred first: a dial walks it in order, success
	// promotes the winner to the front, an sbi.OpRedirect promotes the new
	// owner's address, and a refused registration rotates the refuser to
	// the back. All three ride connMu.
	conn   *sbi.Conn
	tr     sbi.Transport
	addrs  []string
	connMu sync.RWMutex

	// reconnect enables the southbound redial loop; the bounds shape its
	// exponential backoff.
	reconnect                  bool
	reconnectMin, reconnectMax time.Duration
	reconnects                 atomic.Uint64

	// marks is the moved/cloned registry: per-flow keys (one set per class)
	// and shared classes currently part of a controller transaction.
	// markCount is their total, kept by updateMarks and read without the
	// lock by Touch/TouchShared.
	marksMu     sync.Mutex
	marks       map[state.Class]*flowTable[struct{}]
	sharedMoved map[state.Class]bool
	markCount   atomic.Int64
	// creditPeak is the most frames any get has had beyond its credit.
	creditPeak atomic.Int64

	filtersMu sync.Mutex
	filters   []eventFilter

	logMu sync.Mutex
	logs  map[string][]string

	eventSeq atomic.Uint64

	// tracer is the filtered flow tracer (armed via ArmTrace or the
	// southbound sbi.OpTraceFlow). Disarmed, every hook is one atomic
	// pointer load; the zero value starts disarmed.
	tracer obs.FlowTracer

	// Metrics.
	processed       atomic.Uint64
	replayed        atomic.Uint64
	droppedPackets  atomic.Uint64
	droppedReplays  atomic.Uint64
	eventsRaised    atomic.Uint64
	introRaised     atomic.Uint64
	suppressedEmits atomic.Uint64
	suppressedLogs  atomic.Uint64
	emitted         atomic.Uint64
	activeOps       atomic.Int32
	latNormalNS     atomic.Int64
	latNormalN      atomic.Int64
	latDuringOpNS   atomic.Int64
	latDuringOpN    atomic.Int64
}

type eventFilter struct {
	codePrefix string
	match      packet.IDMatch
	enable     bool
	// expires bounds the filter's lifetime; zero means no expiry
	// (§4.2.2: events can be enabled "only for a limited period of
	// time" to protect the controller from overload).
	expires time.Time
}

// New creates a runtime for the given logic. The runtime's packet worker
// starts immediately; connect it to a controller with Connect, to a network
// with netsim's Attach, and give it an emit sink with SetForwardBurst or
// SetForward.
func New(name string, logic Logic, opts Options) *Runtime {
	if opts.QueueSize == 0 {
		opts.QueueSize = 8192
	}
	if opts.Codec == "" {
		opts.Codec = sbi.CodecBinary
	}
	if opts.ReconnectMin <= 0 {
		opts.ReconnectMin = 50 * time.Millisecond
	}
	if opts.ReconnectMax <= 0 {
		opts.ReconnectMax = 2 * time.Second
	}
	rt := &Runtime{
		name:         name,
		logic:        logic,
		sealer:       state.NewSealer("openmb-mbtype-" + logic.Kind()),
		codec:        opts.Codec,
		ring:         newIngressRing(opts.QueueSize),
		stop:         make(chan struct{}),
		reconnect:    opts.Reconnect,
		reconnectMin: opts.ReconnectMin,
		reconnectMax: opts.ReconnectMax,
		marks:        map[state.Class]*flowTable[struct{}]{},
		sharedMoved:  map[state.Class]bool{},
		logs:         map[string][]string{},
	}
	rt.outbox.init()
	rt.workersWG.Add(2)
	go rt.worker()
	go rt.eventFlusher()
	return rt
}

// Name returns the instance name (e.g. "prads1").
func (rt *Runtime) Name() string { return rt.name }

// Logic returns the hosted middlebox logic.
func (rt *Runtime) Logic() Logic { return rt.logic }

// HandlePacket enqueues one packet for processing: a delivery batch of one
// (see HandleBurst).
func (rt *Runtime) HandlePacket(p *packet.Packet) {
	rt.HandleBurst([]*packet.Packet{p})
}

// SetForward replaces the emitted-packet sink with one that takes the
// burst's emits one packet at a time, in order: an adapter onto
// SetForwardBurst. Nil removes the sink.
func (rt *Runtime) SetForward(fn func(p *packet.Packet)) {
	if fn == nil {
		rt.SetForwardBurst(nil)
		return
	}
	rt.SetForwardBurst(func(ps []*packet.Packet) {
		for _, p := range ps {
			fn(p)
		}
	})
}

// SetForwardBurst replaces the emitted-packet sink. A whole burst's emits
// are handed to fn in one call (packet references transfer with the call;
// fn must not retain the slice past its return) — typically a netsim
// SendBurst, or a co-located peer Runtime's HandleBurst. Nil removes the
// sink: emits are then counted and released.
func (rt *Runtime) SetForwardBurst(fn func(ps []*packet.Packet)) {
	rt.forwardMu.Lock()
	rt.forward = fn
	rt.forwardMu.Unlock()
}

// ingressBatch is how many queued packets the worker takes per ring
// synchronization.
const ingressBatch = 64

// maybeRaiseReprocess implements step 2 of §4.2.1: if the packet updated
// state that is part of an in-progress move or clone (decided at Touch time,
// under the logic's lock), send a reprocess event with a copy of the packet
// toward the controller. At most one event is raised per packet; the
// destination replays the whole packet, which renews every piece of state it
// touches. The event is queued on the outbox — the packet's wire form
// marshals into the outbox arena, so the steady state allocates no per-event
// buffer — and the flusher frames it with its burst-mates.
func (rt *Runtime) maybeRaiseReprocess(ctx *Context, p *packet.Packet) {
	if !ctx.raise {
		return
	}
	id := ctx.raiseID
	if ctx.raiseShared {
		id = p.FlowID()
	}
	rt.eventsRaised.Add(1)
	rt.queueEvent(&sbi.Event{
		Kind:   sbi.EventReprocess,
		Key:    id.Key(),
		Class:  ctx.raiseClass,
		Shared: ctx.raiseShared,
		Seq:    rt.eventSeq.Add(1),
	}, p)
}

// emitIntrospection builds and queues an introspection event whose filter
// check (against the burst's filter snapshot) has already passed.
func (rt *Runtime) emitIntrospection(code string, key packet.FlowKey, values map[string]string) {
	rt.introRaised.Add(1)
	rt.queueEvent(&sbi.Event{
		Kind:   sbi.EventIntrospection,
		Key:    key,
		Code:   code,
		Values: values,
		Seq:    rt.eventSeq.Add(1),
	}, nil)
}

// eventSyncTimeout caps how long a mark-clearing op will wait for the
// worker's in-flight packet and the outbox drain. The cap only matters with
// pathological logic (a ProcessBurst wedged mid-burst); in that case the op
// proceeds and accepts the pre-fix one-packet race rather than wedging the
// southbound serve loop.
const eventSyncTimeout = time.Second

// syncEvents publishes every reprocess event already decided against the
// marks as they stood before a clearing op: wait for the in-flight packet
// (whose Touch may have seen the old marks) to finish its raise step, then
// barrier the outbox so those events are flushed to the transport. The
// serve loop replies to the clearing op only after this returns, so the ack
// is serialized on the wire BEHIND every event the cleared marks produced —
// the controller routes them while the transaction is still attached, and
// the quiet-period delete can no longer outrun a slow consumer's backlog of
// marked packets (each of those events carries a packet whose source-side
// update the delete is about to destroy; losing one loses the packet).
func (rt *Runtime) syncEvents() {
	s := rt.procSeq.Load()
	if s&1 == 1 {
		deadline := time.Now().Add(eventSyncTimeout)
		for rt.procSeq.Load() == s && time.Now().Before(deadline) {
			time.Sleep(20 * time.Microsecond)
		}
	}
	rt.outbox.barrier(eventSyncTimeout)
}

// queueEvent hands one raised event to the outbox flusher, keeping the
// Drain accounting exact.
func (rt *Runtime) queueEvent(ev *sbi.Event, p *packet.Packet) {
	rt.eventsQueued.Add(1)
	if !rt.outbox.add(ev, p) {
		rt.eventsQueued.Add(-1)
	}
}

// updateMarks is the only writer of the mark tables: it runs change under
// marksMu, drops emptied sets with their slots, and republishes markCount
// before unlocking.
func (rt *Runtime) updateMarks(change func()) {
	rt.marksMu.Lock()
	change()
	n := len(rt.sharedMoved)
	for class, set := range rt.marks {
		if set.n == 0 {
			delete(rt.marks, class)
		}
		n += set.n
	}
	rt.markCount.Store(int64(n))
	rt.marksMu.Unlock()
}

// markKey records that per-flow state id of class is part of a transaction.
func (rt *Runtime) markKey(class state.Class, id packet.FlowID) {
	rt.updateMarks(func() {
		set := rt.marks[class]
		if set == nil {
			set = &flowTable[struct{}]{}
			rt.marks[class] = set
		}
		set.put(id, struct{}{})
	})
}

// marked reports whether per-flow state (id, class) is in a transaction.
func (rt *Runtime) marked(class state.Class, id packet.FlowID) bool {
	rt.marksMu.Lock()
	defer rt.marksMu.Unlock()
	set := rt.marks[class]
	if set == nil {
		return false
	}
	_, ok := set.get(id)
	return ok
}

// markShared records that shared state of class is part of a transaction.
func (rt *Runtime) markShared(class state.Class) {
	rt.updateMarks(func() { rt.sharedMoved[class] = true })
}

// clearMarks removes transaction marks for keys matching m (either
// direction) in the given class. Shared marks clear only on
// sbi.OpEndTransaction with Enable.
func (rt *Runtime) clearMarks(m packet.FieldMatch, class state.Class) {
	im := m.ForID()
	rt.updateMarks(func() {
		set := rt.marks[class]
		if set == nil {
			return
		}
		for id := range set.all() {
			if im.MatchEither(id) {
				set.remove(id)
			}
		}
	})
}

// MarkedKeys returns the number of distinct per-flow keys currently in
// transactions.
func (rt *Runtime) MarkedKeys() int {
	rt.marksMu.Lock()
	defer rt.marksMu.Unlock()
	return int(rt.markCount.Load()) - len(rt.sharedMoved)
}

func (rt *Runtime) writeLog(stream, line string) {
	rt.logMu.Lock()
	rt.logs[stream] = append(rt.logs[stream], line)
	rt.logMu.Unlock()
}

// Log returns a snapshot of the named log stream (e.g. "conn", "http").
func (rt *Runtime) Log(stream string) []string {
	rt.logMu.Lock()
	defer rt.logMu.Unlock()
	return append([]string(nil), rt.logs[stream]...)
}

// Drain blocks until the ingress queues are empty, no packet is being
// processed, and every raised event has been handed to the transport — or
// the timeout elapses. Returns true if drained.
func (rt *Runtime) Drain(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	idle := func() bool { return rt.pending.Load() == 0 && rt.eventsQueued.Load() == 0 }
	streak := 0
	for time.Now().Before(deadline) {
		if idle() {
			streak++
			if streak >= 3 {
				return true
			}
		} else {
			streak = 0
		}
		time.Sleep(200 * time.Microsecond)
	}
	return idle()
}

// Metrics is a snapshot of runtime counters.
type Metrics struct {
	Processed uint64
	Replayed  uint64
	// DroppedPackets and DroppedReplays count ingress-ring rejections
	// (full or closed): live deliveries shed like a loaded middlebox, and
	// replayed reprocess packets that could not be queued.
	DroppedPackets  uint64
	DroppedReplays  uint64
	EventsRaised    uint64
	IntroRaised     uint64
	Emitted         uint64
	SuppressedEmits uint64
	SuppressedLogs  uint64
	// Reconnects counts successful southbound session resumes.
	Reconnects uint64
	// LatencyNormal and LatencyDuringOp are mean per-packet processing
	// latencies outside and inside southbound-operation windows.
	LatencyNormal   time.Duration
	LatencyDuringOp time.Duration
}

// WireCounters returns the southbound connection's frame and flush
// counters (zero before Connect). The Sent/Flushes ratio is the coalesced
// wire path's effectiveness measure; eval's move-window experiments report
// it as frames/flush.
func (rt *Runtime) WireCounters() sbi.Counters {
	rt.connMu.RLock()
	conn := rt.conn
	rt.connMu.RUnlock()
	if conn == nil {
		return sbi.Counters{}
	}
	return conn.Counters()
}

// RingStats is a consistent snapshot of the ingress ring for load sampling:
// queue depths and drop counters that belong to the same instant.
type RingStats struct {
	// Live and Replay are the queued (not yet dispatched) packet counts;
	// Capacity is each queue's slot count.
	Live, Replay, Capacity int
	// DroppedPackets and DroppedReplays are the cumulative ring-full sheds,
	// coherent with the depths above: no shed happened between the depth
	// read and these counter reads.
	DroppedPackets, DroppedReplays uint64
}

// ringStatsAttempts bounds the RingStats stabilization loop; each retry is a
// handful of atomic loads, so a few attempts ride out even a shed storm.
const ringStatsAttempts = 4

// RingStats returns a tear-proof ingress snapshot. The depths come from one
// lock acquisition on the ring (a packet mid-transfer can never be counted
// twice or not at all), and the drop counters are read before and after the
// depth until both reads agree — so a concurrent shed cannot produce a
// snapshot whose depth and drop count belong to different instants. The
// /metrics scrape contract explicitly allows cross-series tearing; a control
// loop making scale decisions from (depth, drops) deltas cannot, which is
// why it samples here instead of scraping.
func (rt *Runtime) RingStats() RingStats {
	for attempt := 0; ; attempt++ {
		d1, r1 := rt.droppedPackets.Load(), rt.droppedReplays.Load()
		live, replay, capacity := rt.ring.stats()
		d2, r2 := rt.droppedPackets.Load(), rt.droppedReplays.Load()
		if (d1 == d2 && r1 == r2) || attempt >= ringStatsAttempts {
			return RingStats{
				Live: live, Replay: replay, Capacity: capacity,
				DroppedPackets: d2, DroppedReplays: r2,
			}
		}
	}
}

// Metrics returns a snapshot of the runtime's counters.
func (rt *Runtime) Metrics() Metrics {
	m := Metrics{
		Processed:       rt.processed.Load(),
		Replayed:        rt.replayed.Load(),
		DroppedPackets:  rt.droppedPackets.Load(),
		DroppedReplays:  rt.droppedReplays.Load(),
		EventsRaised:    rt.eventsRaised.Load(),
		IntroRaised:     rt.introRaised.Load(),
		Emitted:         rt.emitted.Load(),
		SuppressedEmits: rt.suppressedEmits.Load(),
		SuppressedLogs:  rt.suppressedLogs.Load(),
		Reconnects:      rt.reconnects.Load(),
	}
	if n := rt.latNormalN.Load(); n > 0 {
		m.LatencyNormal = time.Duration(rt.latNormalNS.Load() / n)
	}
	if n := rt.latDuringOpN.Load(); n > 0 {
		m.LatencyDuringOp = time.Duration(rt.latDuringOpNS.Load() / n)
	}
	return m
}

// ArmTrace arms the runtime's filtered flow tracer: capture up to
// spec.Budget per-hop records (ingress ring, dispatch, app verdict, egress)
// of packets matching spec.Match in either direction. The predicate is
// compiled once here; re-arming replaces the previous session.
func (rt *Runtime) ArmTrace(spec obs.TraceSpec) { rt.tracer.Arm(spec) }

// DisarmTrace stops capturing; records stay retrievable via TraceRecords.
func (rt *Runtime) DisarmTrace() { rt.tracer.Disarm() }

// TraceArmed reports whether the flow tracer is currently capturing.
func (rt *Runtime) TraceArmed() bool { return rt.tracer.IsArmed() }

// TraceRecords returns the newest trace session's captured records.
func (rt *Runtime) TraceRecords() []obs.TraceRecord { return rt.tracer.Records() }

// Collect implements obs.Collector: the runtime's counters, its southbound
// wire counters, and ingress-queue depth, labeled by instance and kind.
func (rt *Runtime) Collect(e *obs.Emitter) {
	m := rt.Metrics()
	mb, kind := rt.name, rt.logic.Kind()
	e.Counter("openmb_mb_packets_processed_total", "Live packets run through the middlebox logic.", m.Processed, "mb", mb, "kind", kind)
	e.Counter("openmb_mb_packets_replayed_total", "Reprocess-event packets replayed through the logic.", m.Replayed, "mb", mb, "kind", kind)
	e.Counter("openmb_mb_ring_dropped_packets_total", "Live packets shed by a full or closed ingress ring.", m.DroppedPackets, "mb", mb, "kind", kind)
	e.Counter("openmb_mb_ring_dropped_replays_total", "Replay packets rejected by the ingress ring.", m.DroppedReplays, "mb", mb, "kind", kind)
	e.Counter("openmb_mb_events_raised_total", "Reprocess events raised toward the controller.", m.EventsRaised, "mb", mb, "kind", kind)
	e.Counter("openmb_mb_intro_events_raised_total", "Introspection events raised toward the controller.", m.IntroRaised, "mb", mb, "kind", kind)
	e.Counter("openmb_mb_packets_emitted_total", "Packets the logic emitted toward the forward sink.", m.Emitted, "mb", mb, "kind", kind)
	e.Counter("openmb_mb_suppressed_emits_total", "Emits suppressed during state operations.", m.SuppressedEmits, "mb", mb, "kind", kind)
	e.Counter("openmb_mb_reconnects_total", "Successful southbound session resumes.", m.Reconnects, "mb", mb, "kind", kind)
	e.Gauge("openmb_mb_pending_packets", "Packets queued or in process on the ingress path.", float64(rt.pending.Load()), "mb", mb, "kind", kind)
	rs := rt.RingStats()
	e.Gauge("openmb_mb_ring_depth", "Packets queued in the ingress ring (live + replay).", float64(rs.Live+rs.Replay), "mb", mb, "kind", kind)
	wc := rt.WireCounters()
	e.Counter("openmb_conn_sent_frames_total", "SBI frames sent on the southbound connection.", wc.Sent, "conn", mb, "side", "mb")
	e.Counter("openmb_conn_received_frames_total", "SBI frames received on the southbound connection.", wc.Received, "conn", mb, "side", "mb")
	e.Counter("openmb_conn_flushes_total", "Transport flushes on the southbound connection.", wc.Flushes, "conn", mb, "side", "mb")
}

// Close stops the packet worker and closes the controller connection.
// Packets still queued are released undelivered: closing the ring wakes the
// worker, which releases the backlog (stop is already closed), and a
// delivery racing Close either lands in the ring before that drain or has
// its push rejected by the closed ring and releases its own borrow in
// HandleBurst — no packet is stranded either way.
func (rt *Runtime) Close() {
	rt.stopOnce.Do(func() {
		close(rt.stop)
		rt.ring.close()
		rt.outbox.close()
		rt.connMu.Lock()
		if rt.conn != nil {
			rt.conn.Close()
		}
		rt.connMu.Unlock()
	})
	rt.workersWG.Wait()
	// Bounded wait for in-flight HandleBurst racers: they incremented
	// pending before their push was rejected and release their own borrow
	// right after.
	deadline := time.Now().Add(time.Second)
	for rt.pending.Load() != 0 && time.Now().Before(deadline) {
		time.Sleep(50 * time.Microsecond)
	}
}
