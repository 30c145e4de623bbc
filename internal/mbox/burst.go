package mbox

import (
	"time"

	"openmb/internal/obs"
	"openmb/internal/packet"
)

// This file is the runtime's packet path: the vectorized worker that runs
// each popped ingress batch as one burst, the per-burst scratch state
// contexts share, and the batched ingress/egress hand-offs (HandleBurst in,
// flushEmits out).

// burstState is the scratch state one burst's contexts share: the buffered
// emits (flushed downstream in one hand-off after ProcessBurst) and a lazy
// snapshot of the introspection filters (one filtersMu acquisition and one
// clock read per burst, however many events the burst raises).
type burstState struct {
	emits  []*packet.Packet
	fsnap  []eventFilter
	fnow   time.Time
	fvalid bool
	// ids holds each packet's flow ID as dispatched while the tracer is
	// armed: its verdict is recorded under that ID, whatever the logic
	// rewrote in place.
	ids []packet.FlowID
}

func (bs *burstState) reset() {
	for i := range bs.emits {
		bs.emits[i] = nil
	}
	bs.emits = bs.emits[:0]
	bs.fsnap = bs.fsnap[:0]
	bs.fvalid = false
}

// HandleBurst implements netsim.Endpoint: it enqueues a whole delivery
// batch in one ring synchronization. Packets that do not fit (queue full, or
// ring closed after Close) are dropped and their borrows released, as a
// loaded middlebox would shed them; the ring accepts a prefix in order, so
// the rejects are the trailing packets. After Close every push is rejected,
// so late link deliveries cannot strand a borrow.
func (rt *Runtime) HandleBurst(ps []*packet.Packet) {
	n := len(ps)
	if n == 0 {
		return
	}
	rt.pending.Add(int64(n))
	if a := rt.tracer.Enabled(); a != nil {
		rt.handleBurstTraced(a, ps)
		return
	}
	if rejected := rt.ring.tryPushBurst(ps, nil); rejected > 0 {
		rt.droppedPackets.Add(uint64(rejected))
		rt.pending.Add(int64(-rejected))
		for _, p := range ps[n-rejected:] {
			p.Release()
		}
	}
}

// handleBurstTraced is HandleBurst with the tracer armed: flow keys are
// captured before the push (accepted packets may be processed and recycled
// by the worker concurrently), then recorded with the ring's accept/drop
// outcome per packet under the ring lock, ahead of any dispatch record.
func (rt *Runtime) handleBurstTraced(a *obs.ArmedTrace, ps []*packet.Packet) {
	n := len(ps)
	keys := make([]packet.FlowID, n)
	for i, p := range ps {
		keys[i] = p.FlowID()
	}
	rejected := rt.ring.tryPushBurst(ps, func(accepted int) {
		for i, key := range keys {
			note := ""
			if i >= accepted {
				note = "drop:ring-full"
			}
			a.Record(rt.name, obs.HopIngress, key, note)
		}
	})
	if rejected > 0 {
		rt.droppedPackets.Add(uint64(rejected))
		rt.pending.Add(int64(-rejected))
	}
	for _, p := range ps[n-rejected:] {
		p.Release()
	}
}

// worker is the vectorized drain loop. Replayed packets (reprocess events)
// and live packets are serialized through it, so logic observes a
// single-threaded packet stream, as the paper's per-Connection mutex achieves
// for Bro. Each popped batch becomes one burst, in ring order — the ring
// hands out replay items first (another middlebox waits on them) — and each
// packet's Context carries its own replay flags, so replays take the same
// ProcessBurst as live traffic with their side effects suppressed (§4.2.1).
// Contexts are reused across bursts (Logic must not retain them past
// ProcessBurst), so the steady-state path allocates nothing per packet.
// After Close the ring's backlog is released undelivered.
func (rt *Runtime) worker() {
	defer rt.workersWG.Done()
	var bs burstState
	ctxs := make([]Context, ingressBatch)
	pkts := make([]*packet.Packet, ingressBatch)
	batch := make([]ingressItem, 0, ingressBatch)
	for {
		batch = rt.ring.popBatch(batch)
		if len(batch) == 0 {
			return
		}
		for i, it := range batch {
			pkts[i] = it.p
			ctxs[i] = Context{rt: rt, pkt: it.p, Replay: it.replay, replayShared: it.shared, burst: &bs}
			batch[i] = ingressItem{}
		}
		rt.processBurst(ctxs[:len(batch)], pkts[:len(batch)], &bs)
	}
}

// processBurst runs one burst through the logic, then raises any reprocess
// events, flushes the buffered emits downstream in one hand-off, and
// releases the runtime's borrows on the packets the logic did not pass on.
// A packet whose borrow Emit moved into the emit buffer belongs to the sink
// from flushEmits on (it may already be recycled), so nothing below that
// call reads one. The latency clock is read once per burst (not twice per
// packet) and the mean attributed across the burst's packets, with the
// during-op / normal split decided at burst start.
func (rt *Runtime) processBurst(ctxs []Context, pkts []*packet.Packet, bs *burstState) {
	n := len(pkts)
	select {
	case <-rt.stop:
		rt.pending.Add(int64(-n))
		for i, p := range pkts {
			p.Release()
			pkts[i] = nil
		}
		return
	default:
	}
	bs.reset()
	// Parity clock (see Runtime.procSeq): odd from the first Touch of the
	// burst until every packet's reprocess event is enqueued, so a
	// mark-clearing op can wait out the burst in flight.
	rt.procSeq.Add(1)
	tr := rt.tracer.Enabled()
	if tr != nil {
		bs.ids = bs.ids[:0]
		for i, p := range pkts {
			note := "burst"
			if ctxs[i].Replay {
				note = "replay"
			}
			id := p.FlowID()
			bs.ids = append(bs.ids, id)
			tr.Record(rt.name, obs.HopDispatch, id, note)
		}
	}
	duringOp := rt.activeOps.Load() > 0
	start := time.Now()
	rt.logic.ProcessBurst(ctxs, pkts)
	if tr != nil {
		for i, id := range bs.ids {
			tr.RecordEmits(rt.name, id, ctxs[i].emitted)
		}
	}
	elapsed := time.Since(start)
	if duringOp {
		rt.latDuringOpNS.Add(int64(elapsed))
		rt.latDuringOpN.Add(int64(n))
	} else {
		rt.latNormalNS.Add(int64(elapsed))
		rt.latNormalN.Add(int64(n))
	}
	for i := range ctxs {
		rt.maybeRaiseReprocess(&ctxs[i], pkts[i])
	}
	rt.procSeq.Add(1)
	rt.flushEmits(bs)
	replays := 0
	for i, p := range pkts {
		if ctxs[i].Replay {
			replays++
		}
		if !ctxs[i].moved {
			p.Release()
		}
		pkts[i] = nil
	}
	rt.processed.Add(uint64(n - replays))
	rt.replayed.Add(uint64(replays))
	rt.pending.Add(int64(-n))
}

// flushEmits hands one burst's buffered emits downstream to the forward
// sink in a single call. Reference ownership transfers with the hand-off.
func (rt *Runtime) flushEmits(bs *burstState) {
	if len(bs.emits) == 0 {
		return
	}
	rt.emitted.Add(uint64(len(bs.emits)))
	if a := rt.tracer.Enabled(); a != nil {
		// Before the hand-off: reference ownership transfers with it.
		for _, p := range bs.emits {
			a.Record(rt.name, obs.HopEgress, p.FlowID(), "")
		}
	}
	rt.forwardMu.RLock()
	fwd := rt.forward
	rt.forwardMu.RUnlock()
	if fwd == nil {
		// No sink: the emits are counted but go nowhere, so their
		// references are released here.
		for _, p := range bs.emits {
			p.Release()
		}
		return
	}
	fwd(bs.emits)
}

// filterAllowsBurst evaluates the introspection filters against the burst's
// lazily captured snapshot: the first event of a burst pays the filtersMu
// acquisition and the expiry clock read, burst-mates reuse both. Filters are
// evaluated in reverse registration order; the most recent matching filter
// wins. With no matching filter, events are disabled — the safe default
// against overload. Snapshot staleness is bounded by one burst (tens of
// microseconds) — well inside the delivery slack filter changes already
// tolerate on the wire.
func (rt *Runtime) filterAllowsBurst(bs *burstState, code string, id packet.FlowID) bool {
	if !bs.fvalid {
		rt.filtersMu.Lock()
		bs.fsnap = append(bs.fsnap[:0], rt.filters...)
		rt.filtersMu.Unlock()
		bs.fnow = time.Now()
		bs.fvalid = true
	}
	for i := len(bs.fsnap) - 1; i >= 0; i-- {
		f := bs.fsnap[i]
		if !f.expires.IsZero() && bs.fnow.After(f.expires) {
			continue
		}
		if len(f.codePrefix) <= len(code) && code[:len(f.codePrefix)] == f.codePrefix && f.match.MatchEither(id) {
			return f.enable
		}
	}
	return false
}
