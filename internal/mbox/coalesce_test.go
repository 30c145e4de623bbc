package mbox_test

// Behavioural tests for the coalesced event path: batching within the send
// window, seq-order preservation, and batched reprocess delivery.

import (
	"testing"
	"time"

	"openmb/internal/mbox/mbtest"
	"openmb/internal/packet"
	"openmb/internal/sbi"
)

// TestEventBatchingCoalescesAndPreservesOrder marks a set of flows (via a
// get, as a move would), bursts packets at them, and checks the raised
// reprocess events arrive (a) all of them, (b) in strictly increasing seq
// order, and (c) coalesced — fewer frames than events, with at least one
// genuine multi-event frame.
func TestEventBatchingCoalescesAndPreservesOrder(t *testing.T) {
	logic := mbtest.NewCounterLogic(16)
	h := newHarness(t, logic)
	if h.hello.Batch != sbi.MaxEventsPerFrame {
		t.Fatalf("hello announced event batch %d, want %d", h.hello.Batch, sbi.MaxEventsPerFrame)
	}

	const flows = 8
	for i := 0; i < flows; i++ {
		h.rt.HandlePacket(mbtest.PacketForFlow(i))
	}
	if !h.rt.Drain(10 * time.Second) {
		t.Fatal("preload did not drain")
	}
	// The get marks every exported key as in-transaction.
	h.send(t, &sbi.Message{Type: sbi.MsgRequest, ID: 1, Op: sbi.OpGetSupportPerflow, Match: packet.MatchAll, Batch: 16})
	if chunks, _ := h.collectGet(t, 1); len(chunks) == 0 {
		t.Fatal("no chunks exported")
	}

	const burst = 200
	for i := 0; i < burst; i++ {
		h.rt.HandlePacket(mbtest.PacketForFlow(i % flows))
	}
	// Drain guarantees the burst is processed AND every raised event was
	// handed to the transport (the outbox accounting), so reading the
	// event channel afterwards cannot under-count.
	if !h.rt.Drain(10 * time.Second) {
		t.Fatal("burst did not drain")
	}

	var frames, events, multi int
	var lastSeq uint64
	deadline := time.After(10 * time.Second)
	for events < burst {
		select {
		case m, ok := <-h.events:
			if !ok {
				t.Fatal("controller connection closed")
			}
			frames++
			if m.EventCount() > 1 {
				multi++
			}
			m.EachEvent(func(ev *sbi.Event) {
				events++
				if ev.Kind != sbi.EventReprocess {
					t.Fatalf("unexpected event kind %q", ev.Kind)
				}
				if len(ev.Packet) == 0 {
					t.Fatal("reprocess event without packet")
				}
				if ev.Seq <= lastSeq {
					t.Fatalf("seq order broken: %d after %d", ev.Seq, lastSeq)
				}
				lastSeq = ev.Seq
			})
		case <-deadline:
			t.Fatalf("only %d/%d events arrived", events, burst)
		}
	}
	if events != burst {
		t.Fatalf("events = %d, want %d", events, burst)
	}
	if frames >= events {
		t.Fatalf("no coalescing: %d frames for %d events", frames, events)
	}
	if multi == 0 {
		t.Fatal("no multi-event frame in a 200-packet burst")
	}
	t.Logf("%d events in %d frames (%d batched)", events, frames, multi)
}

// TestBatchedReprocessDelivery: one OpReprocess frame carrying several
// events replays each of them, in order, exactly as per-event frames would.
func TestBatchedReprocessDelivery(t *testing.T) {
	logic := mbtest.NewCounterLogic(16)
	h := newHarness(t, logic)

	key := mbtest.FlowN(0)
	evs := make([]*sbi.Event, 3)
	for i := range evs {
		p := mbtest.PacketForFlow(0)
		evs[i] = &sbi.Event{Kind: sbi.EventReprocess, Key: key, Seq: uint64(i + 1), Packet: p.Marshal(nil)}
	}
	m := &sbi.Message{Type: sbi.MsgRequest, ID: 7, Op: sbi.OpReprocess}
	m.SetEvents(evs)
	h.send(t, m)

	deadline := time.Now().Add(10 * time.Second)
	for h.rt.Metrics().Replayed < uint64(len(evs)) {
		if time.Now().After(deadline) {
			t.Fatalf("replayed %d of %d batched events", h.rt.Metrics().Replayed, len(evs))
		}
		time.Sleep(time.Millisecond)
	}
	// Replays must not raise fresh events or count as processed traffic.
	if got := h.rt.Metrics().Processed; got != 0 {
		t.Fatalf("replays counted as processed: %d", got)
	}

	// An all-empty frame is still rejected like the seed's nil-event case.
	h.send(t, &sbi.Message{Type: sbi.MsgRequest, ID: 8, Op: sbi.OpReprocess})
	if r := h.reply(t); r.Type != sbi.MsgError {
		t.Fatalf("empty reprocess frame accepted: %+v", r)
	}
}
