package mbox

// Overload tests for the runtime's two queues that ARCHITECTURE.md's
// "Queues" table lists beside the ingress ring: the replay ring sheds, the
// event outbox blocks its raiser.

import (
	"testing"
	"time"

	"openmb/internal/sbi"
	"openmb/internal/state"
)

// TestReplayRingShedsWhenFull: replayed packets that find the replay ring
// full are shed and counted; the serve loop that enqueues them never blocks.
func TestReplayRingShedsWhenFull(t *testing.T) {
	const q, overflow = 8, 3
	logic := newGateLogic()
	rt := New("replays", logic, Options{QueueSize: q})
	defer rt.Close()
	rt.HandlePacket(ringPacket(0)) // wedges the worker
	for deadline := time.Now().Add(2 * time.Second); rt.RingStats().Live != 0; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up the wedge packet")
		}
	}
	for i := 0; i < q+overflow; i++ {
		rt.enqueueReplay(ringPacket(1+i), false)
	}
	if rs := rt.RingStats(); rs.Replay != q || rs.DroppedReplays != overflow {
		t.Fatalf("replay ring %d of %d with %d shed, want full with %d shed", rs.Replay, rs.Capacity, rs.DroppedReplays, overflow)
	}
	close(logic.gate)
	if !rt.Drain(5 * time.Second) {
		t.Fatal("runtime did not drain")
	}
}

// TestOutboxBlocksRaiserAtBound stalls the wire under a marked flow's
// traffic: the outbox stops at maxOutboxEvents and holds the packet worker
// there, so the ingress ring sheds instead of the backlog growing; once the
// wire moves again every processed packet's event reaches it.
func TestOutboxBlocksRaiserAtBound(t *testing.T) {
	tr := sbi.NewMemTransport()
	l, err := tr.Listen("ctrl")
	if err != nil {
		t.Fatal(err)
	}
	reading := make(chan struct{})
	events := make(chan int, 1)
	go func() {
		raw, err := l.Accept()
		if err != nil {
			return
		}
		c := sbi.NewConn(raw)
		if _, err := c.Receive(); err != nil { // the hello
			return
		}
		if err := c.Upgrade(sbi.CodecBinary); err != nil {
			return
		}
		<-reading
		n := 0
		for {
			m, err := c.Receive()
			if err != nil {
				events <- n
				return
			}
			n += m.EventCount()
		}
	}()
	rt := New("mb", &touchLogic{cfg: state.NewConfigTree()}, Options{QueueSize: 64})
	if err := rt.Connect(tr, "ctrl"); err != nil {
		t.Fatal(err)
	}
	p := ringPacket(1)
	rt.markKey(state.Supporting, p.FlowID())
	backlog := func() int {
		rt.outbox.mu.Lock()
		defer rt.outbox.mu.Unlock()
		return len(rt.outbox.jobs)
	}
	for deadline := time.Now().Add(10 * time.Second); backlog() < maxOutboxEvents; {
		if time.Now().After(deadline) {
			t.Fatalf("the outbox never filled: %d of %d events", backlog(), maxOutboxEvents)
		}
		rt.HandlePacket(ringPacket(1))
		time.Sleep(10 * time.Microsecond)
	}
	// Full: the worker is held in add, so more traffic is shed at the ring
	// and neither the backlog nor the processed count moves.
	processed, dropped := rt.Metrics().Processed, rt.Metrics().DroppedPackets
	for i := 0; i < 1000; i++ {
		rt.HandlePacket(ringPacket(1))
	}
	if n := backlog(); n != maxOutboxEvents || rt.Metrics().Processed != processed || rt.Metrics().DroppedPackets == dropped {
		t.Fatalf("under a stalled wire: outbox %d (bound %d), processed %d → %d, shed %d → %d",
			n, maxOutboxEvents, processed, rt.Metrics().Processed, dropped, rt.Metrics().DroppedPackets)
	}
	close(reading)
	if !rt.Drain(10 * time.Second) {
		t.Fatal("runtime did not drain once the wire moved")
	}
	raised := rt.Metrics().EventsRaised
	rt.Close()
	if n := <-events; uint64(n) != raised || raised != rt.Metrics().Processed {
		t.Fatalf("%d events on the wire, %d raised, %d packets processed", n, raised, rt.Metrics().Processed)
	}
}
