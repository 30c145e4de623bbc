package core_test

// Regression tests for the move-completion / event-publication race the
// flash-crowd elasticity eval exposed: a slow consumer can still be draining
// marked packets off its ingress ring when the transaction's quiet period
// expires. The source's updates for those packets are destroyed by the
// quiet-period delete, so their reprocess events are the only surviving
// record — if the transaction detaches before they are routed, they are
// purged as orphans and the packets vanish from the moved state. The fix is
// a two-sided barrier: the source acks a mark-clearing op only after every
// event decided under the old marks is flushed to the wire (mbox
// syncEvents), and the controller routes everything received ahead of that
// ack before detaching (mbConn.drainEvents).

import (
	"sync/atomic"
	"testing"
	"time"

	"openmb/internal/core"
	"openmb/internal/mbox"
	"openmb/internal/mbox/mbtest"
	"openmb/internal/packet"
)

// gatedCounter wedges the packet worker once, AFTER the wrapped logic has
// updated state and made its Touch (raise) decision but BEFORE the runtime
// enqueues the reprocess event — the widest version of the window between a
// packet's mark check and its event hitting the wire.
type gatedCounter struct {
	*mbtest.CounterLogic
	gate  chan struct{}
	armed atomic.Bool
}

func (l *gatedCounter) ProcessBurst(ctxs []mbox.Context, pkts []*packet.Packet) {
	l.CounterLogic.ProcessBurst(ctxs, pkts)
	if l.armed.CompareAndSwap(true, false) {
		<-l.gate
	}
}

// TestMoveCompletionWaitsForInFlightEvent pins the loss-freedom contract
// under the race: the quiet-period delete must not outrun a reprocess event
// still inside the worker. Without the publication barrier the timeline is
// deterministic — quiet fires while the worker is wedged mid-packet, the
// delete destroys the packet's update at the source, the transaction
// detaches, and the event (enqueued on release) arrives post-detach and is
// purged as an orphan: the packet is counted nowhere.
func TestMoveCompletionWaitsForInFlightEvent(t *testing.T) {
	r := newRig(t, core.Options{QuietPeriod: 40 * time.Millisecond})
	logic := &gatedCounter{CounterLogic: mbtest.NewCounterLogic(16), gate: make(chan struct{})}
	rt := mbox.New("gsrc", logic, mbox.Options{})
	t.Cleanup(rt.Close)
	if err := rt.Connect(r.tr, "ctrl"); err != nil {
		t.Fatal(err)
	}
	if err := r.ctrl.WaitForMB("gsrc", 2*time.Second); err != nil {
		t.Fatal(err)
	}
	key := mbtest.FlowN(0).Canonical()
	logic.Preload(1)

	// Snapshot + put complete here; the background quiet-period delete is
	// now armed and the flow's key is marked at the source.
	if err := r.ctrl.MoveInternal("gsrc", "dst", packet.MatchAll); err != nil {
		t.Fatal(err)
	}

	// One more packet for the marked flow, wedged after its state update
	// and raise decision. The update is doomed (the delete will destroy
	// it), so its event MUST reach the destination.
	logic.armed.Store(true)
	rt.HandlePacket(mbtest.PacketForFlow(0))
	deadline := time.Now().Add(2 * time.Second)
	for logic.Count(key) != 2 {
		if time.Now().After(deadline) {
			t.Fatal("worker never reached the wedge")
		}
		time.Sleep(time.Millisecond)
	}

	// Let the quiet period expire with the event still unpublished, then
	// release the worker.
	time.Sleep(150 * time.Millisecond)
	close(logic.gate)

	if !rt.Drain(10 * time.Second) {
		t.Fatal("source never drained")
	}
	if !r.ctrl.WaitTxns(10 * time.Second) {
		t.Fatal("transactions never settled")
	}

	src, dst := logic.Count(key), r.dst.Count(key)
	if src+dst != 2 {
		t.Fatalf("flow counted %d (src %d + dst %d), want 2: the wedged packet's event was lost to the quiet-period delete",
			src+dst, src, dst)
	}
	if dst != 2 {
		t.Fatalf("destination holds %d, want 2 (snapshot 1 + replayed wedge packet); source still holds %d", dst, src)
	}
}

// TestMoveSlowConsumerConservation is the statistical cousin: a latency-bound
// logic (1 ms per packet) accumulates a deep ring backlog of marked-flow
// packets, so reprocess events keep streaming long after the move's put
// phase completes. However the quiet period lands relative to that stream,
// every packet must end up counted exactly once across source and
// destination.
func TestMoveSlowConsumerConservation(t *testing.T) {
	const (
		flows   = 4
		perFlow = 25
	)
	r := newRig(t, core.Options{QuietPeriod: 40 * time.Millisecond})
	logic := &slowCounter{CounterLogic: mbtest.NewCounterLogic(16), wait: time.Millisecond}
	rt := mbox.New("ssrc", logic, mbox.Options{QueueSize: flows * perFlow})
	t.Cleanup(rt.Close)
	if err := rt.Connect(r.tr, "ctrl"); err != nil {
		t.Fatal(err)
	}
	if err := r.ctrl.WaitForMB("ssrc", 2*time.Second); err != nil {
		t.Fatal(err)
	}
	logic.Preload(flows)

	// Fill the ring before the move so the snapshot races a deep backlog,
	// interleaving flows so marked packets keep surfacing until the end.
	for i := 0; i < perFlow; i++ {
		for f := 0; f < flows; f++ {
			rt.HandlePacket(mbtest.PacketForFlow(f))
		}
	}
	if err := r.ctrl.MoveInternal("ssrc", "dst", packet.MatchAll); err != nil {
		t.Fatal(err)
	}
	if !rt.Drain(30 * time.Second) {
		t.Fatal("source never drained")
	}
	if !r.ctrl.WaitTxns(30 * time.Second) {
		t.Fatal("transactions never settled")
	}
	if m := rt.Metrics(); m.DroppedPackets != 0 || m.DroppedReplays != 0 {
		t.Fatalf("ring shed %d/%d packets; the conservation audit needs a loss-free run", m.DroppedPackets, m.DroppedReplays)
	}

	for f := 0; f < flows; f++ {
		key := mbtest.FlowN(f).Canonical()
		src, dst := logic.Count(key), r.dst.Count(key)
		if src+dst != 1+perFlow {
			t.Fatalf("flow %d counted %d (src %d + dst %d), want %d (preload 1 + %d injected)",
				f, src+dst, src, dst, 1+perFlow, perFlow)
		}
	}
}

// slowCounter delays each packet before the wrapped logic runs: a
// latency-bound middlebox (an external-lookup DPI box) whose worker drains
// its ring far slower than packets arrive.
type slowCounter struct {
	*mbtest.CounterLogic
	wait time.Duration
}

func (l *slowCounter) ProcessBurst(ctxs []mbox.Context, pkts []*packet.Packet) {
	for i := range pkts {
		time.Sleep(l.wait)
		l.CounterLogic.ProcessBurst(ctxs[i:i+1], pkts[i:i+1])
	}
}
