package mbox

// Allocation assertion for the pooled reprocess-event encode buffer (the
// zero-copy follow-on flagged in ROADMAP): during a move window the event
// path — Touch, event construction, packet marshal, frame encode, transport
// write — must not allocate the packet-sized marshal buffer per event.
// testing.AllocsPerRun counts the whole path, mirroring the approach of
// TestZeroCopySteadyStateAllocs at the repo root.

import (
	"io"
	"net"
	"net/netip"
	"testing"
	"time"

	"openmb/internal/packet"
	"openmb/internal/sbi"
	"openmb/internal/state"
)

// touchLogic is the minimal Logic that touches per-flow supporting state on
// every packet, so a marked flow raises a reprocess event per packet.
type touchLogic struct{ cfg *state.ConfigTree }

func (l *touchLogic) Kind() string { return "touch" }
func (l *touchLogic) ProcessBurst(ctxs []Context, pkts []*packet.Packet) {
	for i, p := range pkts {
		ctxs[i].Touch(state.Supporting, p.FlowID())
	}
}
func (l *touchLogic) GetShared(state.Class, func()) ([]byte, error) { return nil, ErrNoSharedState }
func (l *touchLogic) PutShared(state.Class, []byte) error           { return nil }
func (l *touchLogic) Stats(packet.FieldMatch) sbi.StatsReply        { return sbi.StatsReply{} }
func (l *touchLogic) Config() *state.ConfigTree                     { return l.cfg }

// TestReprocessEventEncodeAllocs drives packets for a marked (mid-move)
// flow through a connected runtime and bounds the steady-state allocations
// of the full event path. Before the pooled encode buffer, every event paid
// one allocation proportional to the packet (header + payload — here 4 KiB,
// so the bound also proves the pool is doing the work, not luck); with it,
// the remaining allocations are the small fixed event/frame structures.
func TestReprocessEventEncodeAllocs(t *testing.T) {
	tr := sbi.NewMemTransport()
	l, err := tr.Listen("ctrl")
	if err != nil {
		t.Fatal(err)
	}
	// Controller stand-in: accept and drain raw bytes (the pipe transport
	// is synchronous, so someone must keep reading). It never decodes —
	// the assertion measures the SENDER's event path, not a peer's
	// decoder.
	go func() {
		raw, err := l.Accept()
		if err != nil {
			return
		}
		_, _ = io.Copy(io.Discard, raw)
	}()

	rt := New("mb", &touchLogic{cfg: state.NewConfigTree()}, Options{})
	defer rt.Close()
	if err := rt.Connect(tr, "ctrl"); err != nil {
		t.Fatal(err)
	}

	pkt := &packet.Packet{
		SrcIP: netip.AddrFrom4([4]byte{10, 0, 0, 1}), DstIP: netip.AddrFrom4([4]byte{1, 1, 1, 1}),
		Proto: packet.ProtoTCP, SrcPort: 4242, DstPort: 80,
		Payload: make([]byte, 4096),
	}
	rt.markKey(state.Supporting, pkt.FlowID())

	send := func() {
		raised := rt.Metrics().EventsRaised
		rt.HandlePacket(pkt)
		deadline := time.Now().Add(5 * time.Second)
		for rt.Metrics().EventsRaised <= raised {
			if time.Now().After(deadline) {
				t.Fatal("no reprocess event raised")
			}
			time.Sleep(5 * time.Microsecond)
		}
	}
	// Warm up: size the pooled buffer and the codec's encode buffer.
	for i := 0; i < 32; i++ {
		send()
	}
	allocs := testing.AllocsPerRun(400, send)
	// Observed: ~3 allocs/event with the pooled buffer (event struct,
	// frame struct, codec internals); the unpooled path adds the 4 KiB
	// marshal buffer and lands at ~4+. The bound separates the two.
	if allocs > 3.5 {
		t.Errorf("reprocess event path: %.2f allocs/event, want <= 3.5 (is the encode buffer pooled?)", allocs)
	}
}

// TestOutboxBarrierWaitsForQueuedEvents: barrier returns only once every
// event queued before the call has been handed to the transport. The test
// holds connMu's write lock, which the flusher's send needs, so the queued
// event cannot leave until the test lets it.
func TestOutboxBarrierWaitsForQueuedEvents(t *testing.T) {
	rt := New("barrier", &touchLogic{cfg: state.NewConfigTree()}, Options{})
	defer rt.Close()
	rt.connMu.Lock()
	rt.queueEvent(&sbi.Event{Kind: sbi.EventIntrospection, Code: "test", Seq: 1}, nil)
	done := make(chan struct{})
	go func() {
		rt.outbox.barrier(time.Minute)
		close(done)
	}()
	select {
	case <-done:
		rt.connMu.Unlock()
		t.Fatal("barrier returned while its event was still queued")
	case <-time.After(50 * time.Millisecond): // well past the 2 ms linger
	}
	rt.connMu.Unlock()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("barrier still waiting after the event was sent")
	}
	if n := rt.eventsQueued.Load(); n != 0 {
		t.Fatalf("barrier returned with %d events not yet handed to the transport", n)
	}
}

// TestEventFramesFlushedPastEncodeError: on a binary connection, a drained
// batch whose second frame cannot be encoded (binary rejects a non-IPv4 key)
// still delivers its first frame, with no later send behind it to carry the
// buffer out.
func TestEventFramesFlushedPastEncodeError(t *testing.T) {
	a, b := net.Pipe()
	conn, peer := sbi.NewConn(a), sbi.NewConn(b)
	defer conn.Close()
	defer peer.Close()
	for _, c := range []*sbi.Conn{conn, peer} {
		if err := c.Upgrade(sbi.CodecBinary); err != nil {
			t.Fatal(err)
		}
	}
	v4 := packet.FlowKey{SrcIP: netip.AddrFrom4([4]byte{10, 0, 0, 1}), DstIP: netip.AddrFrom4([4]byte{1, 1, 1, 1}), Proto: packet.ProtoTCP, SrcPort: 4242, DstPort: 80}
	batch := make([]*sbi.Event, sbi.MaxEventsPerFrame+1)
	for i := range batch {
		batch[i] = &sbi.Event{Kind: sbi.EventReprocess, Key: v4, Seq: uint64(i + 1)}
	}
	// The first event of the second frame.
	batch[sbi.MaxEventsPerFrame].Key.SrcIP = netip.MustParseAddr("2001:db8::1")

	got := make(chan *sbi.Message, 1)
	go func() {
		if m, err := peer.Receive(); err == nil {
			got <- m
		}
	}()
	rt := &Runtime{conn: conn}
	rt.sendEventFrames(batch)
	select {
	case m := <-got:
		if m.EventCount() != sbi.MaxEventsPerFrame {
			t.Fatalf("frame 1 carries %d events, want %d", m.EventCount(), sbi.MaxEventsPerFrame)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("frame 1 stayed buffered behind the frame that failed to encode")
	}
}
