package mbox_test

import (
	"net/netip"
	"sync"
	"testing"
	"time"

	"openmb/internal/mbox"
	"openmb/internal/mbox/nat"
	"openmb/internal/packet"
	"openmb/internal/sbi"
)

// emitSink records the packets a runtime emits, as they left it, and
// releases them.
type emitSink struct {
	mu   sync.Mutex
	pkts []packet.Packet
}

func newEmitSink(rt *mbox.Runtime) *emitSink {
	s := &emitSink{}
	rt.SetForwardBurst(func(ps []*packet.Packet) {
		s.mu.Lock()
		for _, p := range ps {
			s.pkts = append(s.pkts, *p.CloneDetached())
			p.Release()
		}
		s.mu.Unlock()
	})
	return s
}

func (s *emitSink) emitted() []packet.Packet {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]packet.Packet(nil), s.pkts...)
}

// afterBurst records the replayed packets of every burst as they stand once
// the inner logic's ProcessBurst has returned.
type afterBurst struct {
	mbox.Logic
	mu      sync.Mutex
	replays [][]byte
}

func (l *afterBurst) ProcessBurst(ctxs []mbox.Context, pkts []*packet.Packet) {
	l.Logic.ProcessBurst(ctxs, pkts)
	l.mu.Lock()
	for i, p := range pkts {
		if ctxs[i].Replay {
			l.replays = append(l.replays, p.Marshal(nil))
		}
	}
	l.mu.Unlock()
}

// TestRewriteInPlaceRules pins the conditions under which Context.Rewrite
// hands the NAT the packet itself instead of a copy: a reprocess event still
// carries the packet as it arrived, a packet someone else also holds is
// copied, and a replay is never rewritten.
func TestRewriteInPlaceRules(t *testing.T) {
	ext := netip.AddrFrom4([4]byte{203, 0, 113, 1})
	internal := netip.AddrFrom4([4]byte{10, 0, 0, 1})

	t.Run("EventCarriesArrivingPacket", func(t *testing.T) {
		pool := packet.NewPool(packet.PoolOptions{Accounting: true})
		h := newHarness(t, nat.New(ext))
		sink := newEmitSink(h.rt)
		h.rt.HandlePacket(pool.Clone(pkt(1, 1000))) // creates the mapping
		h.rt.Drain(time.Second)
		if gets := pool.Stats().Gets; gets != 1 {
			t.Fatalf("unmarked flow: %d pool gets, want 1 (translated in place)", gets)
		}
		m, _ := packet.ParseFieldMatch("[nw_src=10.0.0.1]")
		h.send(t, &sbi.Message{Type: sbi.MsgRequest, ID: 1, Op: sbi.OpGetSupportPerflow, Match: m})
		if chunks, _ := h.collectGet(t, 1); len(chunks) != 1 {
			t.Fatalf("get returned %d chunks, want the flow's mapping", len(chunks))
		}
		h.rt.HandlePacket(pool.Clone(pkt(1, 1000)))
		h.rt.Drain(time.Second)

		var ev *sbi.Event
		select {
		case msg := <-h.events:
			msg.EachEvent(func(e *sbi.Event) {
				if ev == nil && e.Kind == sbi.EventReprocess {
					ev = e
				}
			})
		case <-time.After(2 * time.Second):
		}
		if ev == nil {
			t.Fatal("no reprocess event for the marked flow")
		}
		var carried packet.Packet
		if err := carried.Unmarshal(ev.Packet); err != nil {
			t.Fatal(err)
		}
		if carried.SrcIP != internal || carried.SrcPort != 1000 {
			t.Errorf("reprocess event carries %s, want the internal source %s:1000", &carried, internal)
		}
		out := sink.emitted()
		if len(out) != 2 || out[1].SrcIP != ext {
			t.Fatalf("emitted %v, want two packets translated to %s", out, ext)
		}
		if err := pool.CheckLeaks(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("SharedPacketIsCopied", func(t *testing.T) {
		pool := packet.NewPool(packet.PoolOptions{Accounting: true})
		rt := mbox.New("nat", nat.New(ext), mbox.Options{})
		defer rt.Close()
		sink := newEmitSink(rt)
		p := pool.Clone(pkt(1, 1000))
		p.Retain() // a second holder, e.g. a recorder
		want := p.Marshal(nil)
		rt.HandlePacket(p)
		if !rt.Drain(time.Second) {
			t.Fatal("runtime did not drain")
		}
		if got := p.Marshal(nil); string(got) != string(want) {
			t.Errorf("the other holder's packet changed: %s", p)
		}
		out := sink.emitted()
		if len(out) != 1 || out[0].SrcIP != ext {
			t.Fatalf("emitted %v, want one packet translated to %s", out, ext)
		}
		p.Release()
		if err := pool.CheckLeaks(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("ReplayIsNotRewritten", func(t *testing.T) {
		pool := packet.NewPool(packet.PoolOptions{Accounting: true})
		logic := &afterBurst{Logic: nat.New(ext)}
		rt := mbox.New("nat", logic, mbox.Options{})
		defer rt.Close()
		sink := newEmitSink(rt)
		p := pool.Clone(pkt(1, 1000))
		want := p.Marshal(nil)
		mbox.EnqueueReplayForTest(rt, p, false)
		if !rt.Drain(time.Second) {
			t.Fatal("runtime did not drain")
		}
		if len(logic.replays) != 1 || string(logic.replays[0]) != string(want) {
			t.Errorf("replayed packet after ProcessBurst: %x, want it as replayed: %x", logic.replays, want)
		}
		if m := rt.Metrics(); m.Replayed != 1 || len(sink.emitted()) != 0 {
			t.Errorf("replayed %d, emitted %d; want 1 replay with its emit suppressed", m.Replayed, len(sink.emitted()))
		}
		if err := pool.CheckLeaks(); err != nil {
			t.Fatal(err)
		}
	})
}
