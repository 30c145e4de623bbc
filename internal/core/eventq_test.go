package core

import (
	"net"
	"net/netip"
	"testing"
	"time"

	"openmb/internal/packet"
	"openmb/internal/sbi"
)

// TestEventQueueBackpressuresReadLoop drives a connection's event queue into
// overload. With its router stalled, the read loop blocks once eventQ is
// full, so a reply behind the events waits and so does drainEvents. Once the
// router moves, the reply arrives and drainEvents returns on the router's
// signal.
func TestEventQueueBackpressuresReadLoop(t *testing.T) {
	c := NewController(Options{Shards: 1})
	defer c.Close()
	ctrlSide, mbSide := net.Pipe()
	mb := newMBConn("mb", "counter", sbi.NewConn(ctrlSide), c)
	peer := sbi.NewConn(mbSide)
	defer peer.Close()
	defer mb.conn.Close()
	// Hold the one router shard: the router stalls on the first event.
	sh := &mb.router.shards[0]
	sh.mu.Lock()
	mb.eventWG.Add(1)
	go mb.eventRouter()
	go func() { _ = mb.readLoop() }()

	id, cl := mb.newCall(nil, 1)
	const frames = eventQueueDepth + 4
	go func() {
		for i := 0; i < frames; i++ {
			key := packet.FlowKey{SrcIP: netip.AddrFrom4([4]byte{10, 0, 0, byte(i)}), DstIP: netip.AddrFrom4([4]byte{1, 1, 1, 1}), Proto: packet.ProtoTCP, SrcPort: 1024, DstPort: 80}
			if peer.Send(&sbi.Message{Type: sbi.MsgEvent, Event: &sbi.Event{Kind: sbi.EventReprocess, Key: key, Seq: uint64(i)}}) != nil {
				return
			}
		}
		_ = peer.Send(&sbi.Message{Type: sbi.MsgDone, ID: id})
	}()
	// One frame held by the router, a full queue, and one more in the read
	// loop's hands: the loop is blocked.
	for deadline := time.Now().Add(5 * time.Second); mb.eventsRecv.Load() < eventQueueDepth+2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("read loop accepted %d events, want %d", mb.eventsRecv.Load(), eventQueueDepth+2)
		}
	}
	drained := make(chan struct{})
	go func() { mb.drainEvents(10 * time.Second); close(drained) }()
	select {
	case <-cl.ch:
		t.Fatal("a reply overtook the blocked event queue")
	case <-drained:
		t.Fatal("drainEvents returned with events in flight")
	case <-time.After(50 * time.Millisecond):
	}

	sh.mu.Unlock()
	select {
	case m := <-cl.ch:
		if m.ID != id {
			t.Fatalf("reply %d delivered to call %d", m.ID, id)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the reply never arrived once the router moved")
	}
	select {
	case <-drained:
	case <-time.After(5 * time.Second):
		t.Fatal("drainEvents missed the router's signal")
	}
	// The reply came behind every event, so all of them are received now;
	// one more drain waits for the last to be routed.
	mb.drainEvents(5 * time.Second)
	if n := mb.eventsInFlight(); n != 0 || mb.eventsRouted.Load() != frames {
		t.Fatalf("%d events in flight, %d routed, want 0 and %d", n, mb.eventsRouted.Load(), frames)
	}
	mb.dropCall(id)
}

// TestForwardedEventsFlushedPastEncodeError: on a binary connection, a
// forwarded batch whose second frame cannot be encoded (binary rejects a
// non-IPv4 key) still delivers its first frame, with no later send behind
// it to carry the buffer out.
func TestForwardedEventsFlushedPastEncodeError(t *testing.T) {
	c := NewController(Options{Shards: 1})
	defer c.Close()
	ctrlSide, mbSide := net.Pipe()
	dst := newMBConn("mb", "counter", sbi.NewConn(ctrlSide), c)
	peer := sbi.NewConn(mbSide)
	defer peer.Close()
	defer dst.conn.Close()
	for _, conn := range []*sbi.Conn{dst.conn, peer} {
		if err := conn.Upgrade(sbi.CodecBinary); err != nil {
			t.Fatal(err)
		}
	}
	dst.eventBatch = 1
	v4 := packet.FlowKey{SrcIP: netip.AddrFrom4([4]byte{10, 0, 0, 1}), DstIP: netip.AddrFrom4([4]byte{1, 1, 1, 1}), Proto: packet.ProtoTCP, SrcPort: 1024, DstPort: 80}
	v6 := v4
	v6.SrcIP, v6.DstIP = netip.MustParseAddr("2001:db8::1"), netip.MustParseAddr("2001:db8::2")

	got := make(chan *sbi.Message, 1)
	go func() {
		if m, err := peer.Receive(); err == nil {
			got <- m
		}
	}()
	forwardEvents(c, dst, []*sbi.Event{
		{Kind: sbi.EventReprocess, Key: v4, Seq: 1},
		{Kind: sbi.EventReprocess, Key: v6, Seq: 2},
	})
	select {
	case m := <-got:
		if m.Op != sbi.OpReprocess || m.EventCount() != 1 || m.Event.Seq != 1 {
			t.Fatalf("received %+v, want the reprocess frame of event 1", m)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("frame 1 stayed buffered behind the frame that failed to encode")
	}
}
