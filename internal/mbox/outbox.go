package mbox

import (
	"sync"
	"time"

	"openmb/internal/packet"
	"openmb/internal/sbi"
)

// startEventWindow is the event coalescing window the flusher starts at:
// after the first event of a burst wakes the flusher, it waits this long for
// burst-mates before framing, ClickOS-style interrupt coalescing for the
// southbound wire. The added delivery latency is negligible against the
// controller's quiet period (50 ms in benchmarks, 5 s in the paper) and the
// buffer-until-ACK discipline — the controller parks in-transaction events
// anyway — while a 2 ms window turns a 2500 pps move's per-event
// frames-and-flushes into ~5-event batches.
const startEventWindow = 2 * time.Millisecond

// maxEventWindow caps the adaptive window. Outbox residence time is
// invisible to the controller's quiescence accounting (it can only see
// events that reached the wire), so the window must stay a small fraction of
// the tightest quiet period in use (50 ms in the benchmark rigs; 5 s in the
// paper's deployment default) — a window at or past it would let
// transactions complete while count-bearing events are still parked
// source-side.
const maxEventWindow = 10 * time.Millisecond

// minEventWindow is the floor the adaptive coalescing window shrinks to
// under light event load: deep enough that near-simultaneous events still
// share a frame, shallow enough that a lone event's delivery latency is
// dominated by scheduling, not by the linger.
const minEventWindow = 250 * time.Microsecond

// maxOutboxEvents bounds the event backlog. When the raiser outruns the
// wire, add blocks until the flusher drains below the bound, throttling the
// packet worker to wire speed. Without it a saturating
// packet loop grows the backlog without limit and the event firehose
// starves same-connection request streams. The bound is deliberately a
// small multiple of the frame size: a worker stall lasts one drain cycle,
// and a cycle's length scales with the backlog it swallowed — a deep
// backlog turns smooth per-event throttling into bursty stalls long
// enough for the ingress ring to overflow.
const maxOutboxEvents = 16 * sbi.MaxEventsPerFrame

// eventOutbox decouples event raising from event transmission: the packet
// worker appends events (reprocess packet payloads marshal into a shared
// arena, so the steady state allocates no per-event buffer) and a single
// flusher goroutine frames everything pending into batched MsgEvent frames.
// FIFO order — and therefore seq order — is preserved end to end.
type eventOutbox struct {
	mu      sync.Mutex
	cond    sync.Cond
	notFull sync.Cond
	jobs    []*sbi.Event
	arena   []byte
	closed  bool
	// draining is true while the flusher is framing a swapped-out batch;
	// gen counts completed drain cycles. Together they let barrier wait
	// until everything queued before the call is on the wire. drained is
	// closed, and cleared, at each gen++ and at close; a waiting barrier
	// makes it, so a drain cycle nobody waits on allocates nothing.
	draining bool
	gen      uint64
	drained  chan struct{}
}

func (ob *eventOutbox) init() {
	ob.cond.L = &ob.mu
	ob.notFull.L = &ob.mu
}

// add queues ev; if p is non-nil its wire form is marshaled into the arena
// and attached as the event's packet. Blocks while the backlog is at its
// bound (wire-speed backpressure on the raiser). Reports false when the
// outbox closed (the event is dropped, as a send on a dead connection
// would be).
func (ob *eventOutbox) add(ev *sbi.Event, p *packet.Packet) bool {
	ob.mu.Lock()
	for len(ob.jobs) >= maxOutboxEvents && !ob.closed {
		ob.notFull.Wait()
	}
	if ob.closed {
		ob.mu.Unlock()
		return false
	}
	if p != nil {
		// An arena grow moves earlier events' payloads to a new backing
		// array; their slices keep aliasing the old one, which stays valid
		// until they are framed. Steady state: capacity sticks at one
		// window's worth of payload and nothing allocates.
		off := len(ob.arena)
		ob.arena = p.Marshal(ob.arena)
		ev.Packet = ob.arena[off:len(ob.arena):len(ob.arena)]
	}
	ob.jobs = append(ob.jobs, ev)
	wake := len(ob.jobs) == 1
	ob.mu.Unlock()
	if wake {
		ob.cond.Signal()
	}
	return true
}

// barrier blocks until every event queued before the call has been framed
// and flushed to the transport (or the outbox closed, or the cap expired).
// Because every drain swaps out the WHOLE backlog, the events in question
// are covered by at most two more drain completions: the batch currently
// mid-send plus one drain of the present jobs slice. Waiting on the drain
// generation instead of an empty backlog keeps the bound independent of
// concurrent raisers refilling the queue.
func (ob *eventOutbox) barrier(timeout time.Duration) {
	ob.mu.Lock()
	var target uint64
	switch {
	case ob.draining && len(ob.jobs) > 0:
		target = ob.gen + 2
	case ob.draining || len(ob.jobs) > 0:
		target = ob.gen + 1
	default:
		ob.mu.Unlock()
		return
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for ob.gen < target && !ob.closed {
		if ob.drained == nil {
			ob.drained = make(chan struct{})
		}
		drained := ob.drained
		ob.mu.Unlock()
		select {
		case <-drained:
		case <-timer.C:
			return
		}
		ob.mu.Lock()
	}
	ob.mu.Unlock()
}

// wakeBarriers releases every barrier waiting for the next drain cycle.
// Caller holds ob.mu.
func (ob *eventOutbox) wakeBarriers() {
	if ob.drained != nil {
		close(ob.drained)
		ob.drained = nil
	}
}

// close wakes the flusher to drain the backlog and exit, and releases any
// raiser blocked on the bound and any barrier.
func (ob *eventOutbox) close() {
	ob.mu.Lock()
	ob.closed = true
	ob.wakeBarriers()
	ob.mu.Unlock()
	ob.cond.Broadcast()
	ob.notFull.Broadcast()
}

// eventFlusher is the outbox consumer: wait for the first event of a burst,
// linger for the coalescing window, then swap out the whole backlog and
// frame it. The previous cycle's job slice and arena are handed back as the
// next fill buffers (double buffering), so the flusher allocates nothing in
// steady state beyond the frames themselves.
//
// The window is adaptive, NAPI-style: a drain that fills half a frame or
// more stretches the next linger (×2, capped at maxEventWindow — sustained
// bursts buy bigger batches per flush), while a near-empty drain shrinks it
// (÷2, floored at minEventWindow — light load buys latency), starting from
// startEventWindow.
func (rt *Runtime) eventFlusher() {
	defer rt.workersWG.Done()
	ob := &rt.outbox
	var spareJobs []*sbi.Event
	var spareArena []byte
	lastBatch := 0
	window := startEventWindow
	for {
		ob.mu.Lock()
		for len(ob.jobs) == 0 && !ob.closed {
			ob.cond.Wait()
		}
		if len(ob.jobs) == 0 {
			ob.mu.Unlock()
			return
		}
		pending, closed := len(ob.jobs), ob.closed
		ob.mu.Unlock()
		// Linger only at low rates — when neither the pending backlog nor
		// the previous drain reached a full frame. Once a full frame's
		// worth is flowing per cycle, batching has nothing left to gain
		// and the sleep would only throttle the pipeline below the wire's
		// capacity (the raiser is blocked on the backlog bound meanwhile).
		if !closed && pending < sbi.MaxEventsPerFrame && lastBatch < sbi.MaxEventsPerFrame {
			time.Sleep(window)
		}
		ob.mu.Lock()
		batch, arena := ob.jobs, ob.arena
		ob.jobs, ob.arena = spareJobs[:0], spareArena[:0]
		ob.draining = true
		ob.notFull.Broadcast()
		ob.mu.Unlock()

		rt.sendEventFrames(batch)
		rt.eventsQueued.Add(-int64(len(batch)))
		ob.mu.Lock()
		ob.draining = false
		ob.gen++
		ob.wakeBarriers()
		ob.mu.Unlock()
		lastBatch = len(batch)
		for i := range batch {
			batch[i] = nil
		}
		spareJobs, spareArena = batch, arena
		switch {
		case lastBatch >= sbi.MaxEventsPerFrame/2:
			if window *= 2; window > maxEventWindow {
				window = maxEventWindow
			}
		case lastBatch <= 2:
			if window /= 2; window < minEventWindow {
				window = minEventWindow
			}
		}
	}
}

// sendEventFrames frames a drained batch — one frame per MaxEventsPerFrame
// events, deferred, with a single flush publishing the cycle — and sends it
// southbound. With no controller connected the events are dropped, exactly
// as a send on a failed connection would be.
func (rt *Runtime) sendEventFrames(batch []*sbi.Event) {
	rt.connMu.RLock()
	conn := rt.conn
	rt.connMu.RUnlock()
	if conn == nil || len(batch) == 0 {
		return
	}
	// Send errors mean the controller is gone or an event cannot be framed;
	// the events from the failing frame on are dropped, as they would be on
	// a failed TCP connection.
	_ = sbi.FrameEvents(batch, sbi.MaxEventsPerFrame, func(frame []*sbi.Event) error {
		m := &sbi.Message{Type: sbi.MsgEvent}
		m.SetEvents(frame)
		return conn.SendDeferred(m)
	})
	// The events-path bounded-latency guarantee: one explicit flush per
	// drain cycle, so a raised event reaches the transport within the
	// coalescing window plus one framing pass. It runs whatever the framing
	// returned: the frames encoded before a failing one are in the buffer.
	_ = conn.Flush()
}
