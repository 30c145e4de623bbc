package mbox

import (
	"time"

	"openmb/internal/obs"
	"openmb/internal/packet"
)

// This file is the runtime's packet path: the vectorized worker that
// partitions ingress batches into live bursts, the per-burst scratch state
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
}

func (bs *burstState) reset() {
	for i := range bs.emits {
		bs.emits[i] = nil
	}
	bs.emits = bs.emits[:0]
	bs.fsnap = bs.fsnap[:0]
	bs.fvalid = false
}

// HandleBurst implements netsim.BurstEndpoint: it enqueues a whole delivery
// batch in one ring synchronization. Packets that do not fit (queue full, or
// ring closed after Close) are dropped and their borrows released, exactly as
// HandlePacket sheds them one at a time; the ring accepts a prefix in order,
// so the rejects are the trailing packets.
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
			recordIngress(a, rt.name, key, i < accepted)
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

// recordIngress writes one packet's HopIngress record: accepted, or shed at
// a full (or closed) ring.
func recordIngress(a *obs.ArmedTrace, mb string, key packet.FlowID, accepted bool) {
	note := ""
	if !accepted {
		note = "drop:ring-full"
	}
	a.Record(mb, obs.HopIngress, key, note)
}

// worker is the vectorized drain loop. Replayed packets (reprocess events)
// and live packets are serialized through it, so logic observes a
// single-threaded packet stream, as the paper's per-Connection mutex achieves
// for Bro; the ring hands out replay items first (another middlebox waits on
// them). Each popped batch is partitioned in order: replayed packets take
// the per-packet processReplay path (they carry per-item suppression state
// and are rare), and every maximal run of live packets becomes one burst
// through processBurst — the logic still observes packets strictly in
// arrival order. Contexts are reused across bursts (Logic must not retain
// them past Process), so the steady-state path allocates nothing per packet.
// After Close the ring's backlog is released undelivered.
func (rt *Runtime) worker() {
	defer rt.workersWG.Done()
	var rctx Context
	var bs burstState
	ctxs := make([]Context, ingressBatch)
	pkts := make([]*packet.Packet, ingressBatch)
	batch := make([]ingressItem, 0, ingressBatch)
	for {
		batch = rt.ring.popBatch(batch)
		if len(batch) == 0 {
			return
		}
		i := 0
		for i < len(batch) {
			if it := batch[i]; it.replay {
				batch[i] = ingressItem{}
				i++
				select {
				case <-rt.stop:
					rt.pending.Add(-1)
					it.p.Release()
				default:
					rt.processReplay(&rctx, it.p, it.shared)
				}
				continue
			}
			j := i
			for j < len(batch) && !batch[j].replay {
				pkts[j-i] = batch[j].p
				batch[j] = ingressItem{}
				j++
			}
			rt.processBurst(ctxs[:j-i], pkts[:j-i], &bs)
			i = j
		}
	}
}

// processBurst runs one run of live packets through the logic — natively via
// ProcessBurst when the logic implements BurstLogic, otherwise through a
// per-packet Process shim — then raises any reprocess events, flushes the
// buffered emits downstream in one hand-off, and releases the runtime's
// borrows on the packets the logic did not pass on. A packet whose borrow
// Emit moved into the emit buffer belongs to the sink from flushEmits on
// (it may already be recycled), so nothing below that call reads one. The
// latency clock is read once per burst (not twice per packet)
// and the mean attributed across the burst's packets, with the during-op /
// normal split decided at burst start.
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
		for _, p := range pkts {
			tr.Record(rt.name, obs.HopDispatch, p.FlowID(), "burst")
		}
	}
	duringOp := rt.activeOps.Load() > 0
	start := time.Now()
	for i := range ctxs {
		ctxs[i] = Context{rt: rt, pkt: pkts[i], burst: bs}
	}
	if rt.burstLogic != nil {
		rt.burstLogic.ProcessBurst(ctxs, pkts)
	} else {
		for i := range ctxs {
			rt.logic.Process(&ctxs[i], pkts[i])
		}
	}
	if tr != nil {
		for i := range ctxs {
			tr.RecordEmits(rt.name, pkts[i].FlowID(), ctxs[i].emitted)
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
	rt.processed.Add(uint64(n))
	rt.pending.Add(int64(-n))
	for i, p := range pkts {
		if !ctxs[i].moved {
			p.Release()
		}
		pkts[i] = nil
	}
}

// flushEmits hands one burst's buffered emits downstream: through the
// SetForwardBurst sink in a single call when one is wired (the co-located
// handoff), else through the per-packet forward sink in order. Reference
// ownership transfers with the hand-off.
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
	fb, fn := rt.forwardBurst, rt.forward
	rt.forwardMu.RUnlock()
	switch {
	case fb != nil:
		fb(bs.emits)
	case fn != nil:
		for _, p := range bs.emits {
			fn(p)
		}
	default:
		// No sink: the emits are counted but go nowhere, so their
		// references are released here.
		for _, p := range bs.emits {
			p.Release()
		}
	}
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
