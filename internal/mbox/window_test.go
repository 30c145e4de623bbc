package mbox_test

import (
	"fmt"
	"net"
	"slices"
	"strings"
	"testing"
	"time"

	"openmb/internal/core"
	"openmb/internal/mbox"
	"openmb/internal/mbox/mbtest"
	"openmb/internal/packet"
	"openmb/internal/sbi"
	"openmb/internal/state"
)

// TestGetWindowBoundsUncreditedFrames moves whole tables through a real
// controller and counts, at the source, the chunk frames each get had sent
// beyond the credit returned to it: never more than the window the
// controller asked for (its PutWorkers), however large the move.
func TestGetWindowBoundsUncreditedFrames(t *testing.T) {
	const window = 8
	for _, chunks := range []int{20000, 80000} {
		t.Run(fmt.Sprint(chunks), func(t *testing.T) {
			tr := sbi.NewMemTransport()
			ctrl := core.NewController(core.Options{QuietPeriod: 10 * time.Millisecond, BatchSize: 32, PutWorkers: window})
			if err := ctrl.Serve(tr, "ctrl"); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(ctrl.Close)
			src, dst := mbtest.NewCounterLogic(16), mbtest.NewCounterLogic(16)
			var srcRT *mbox.Runtime
			for name, logic := range map[string]*mbtest.CounterLogic{"src": src, "dst": dst} {
				rt := mbox.New(name, logic, mbox.Options{})
				t.Cleanup(rt.Close)
				if err := rt.Connect(tr, "ctrl"); err != nil {
					t.Fatal(err)
				}
				if err := ctrl.WaitForMB(name, 2*time.Second); err != nil {
					t.Fatal(err)
				}
				if logic == src {
					srcRT = rt
				}
			}
			src.Preload(chunks)
			moved := make(chan error, 1)
			go func() { moved <- ctrl.MoveInternal("src", "dst", packet.MatchAll) }()
			// A source that overruns its window stalls the move: the
			// window is checked either way.
			var err error
			select {
			case err = <-moved:
			case <-time.After(30 * time.Second):
				err = fmt.Errorf("move did not finish")
			}
			peak := mbox.CreditPeakForTest(srcRT)
			t.Logf("%d chunks in %d frames: at most %d uncredited (window %d)", chunks, chunks/32, peak, window)
			if peak < 1 || peak > window {
				t.Fatalf("a get had %d frames outstanding beyond its credit, want 1..%d", peak, window)
			}
			if err != nil {
				t.Fatal(err)
			}
			if !ctrl.WaitTxns(30 * time.Second) {
				t.Fatal("move did not settle")
			}
			if dst.Flows() != chunks || src.Flows() != 0 {
				t.Fatalf("after the move: dst %d flows, src %d, want %d and 0", dst.Flows(), src.Flows(), chunks)
			}
		})
	}
}

// TestGetWaitsForCredit drives the credit protocol by hand: a windowed get
// sends its window and stops, each credit frame releases that many more
// frames, and a zero credit cancels the get.
func TestGetWaitsForCredit(t *testing.T) {
	logic := mbtest.NewCounterLogic(16)
	logic.Preload(10)
	h := newHarness(t, logic)
	h.send(t, &sbi.Message{Type: sbi.MsgRequest, ID: 1, Op: sbi.OpGetSupportPerflow, Match: packet.MatchAll, Window: 2})
	for i := 0; i < 2; i++ {
		if m := h.reply(t); m.Type != sbi.MsgChunk {
			t.Fatalf("frame %d: %+v, want a chunk", i, m)
		}
	}
	select {
	case m := <-h.replies:
		t.Fatalf("the get sent %+v past its window", m)
	case <-time.After(50 * time.Millisecond):
	}
	h.send(t, &sbi.Message{Type: sbi.MsgRequest, ID: 1, Op: sbi.OpCredit, Count: 1})
	if m := h.reply(t); m.Type != sbi.MsgChunk {
		t.Fatalf("after one credit: %+v, want a chunk", m)
	}
	h.send(t, &sbi.Message{Type: sbi.MsgRequest, ID: 1, Op: sbi.OpCredit})
	if m := h.reply(t); m.Type != sbi.MsgError || !strings.Contains(m.Error, "cancelled") {
		t.Fatalf("after the cancel: %+v, want the get's error", m)
	}
	// The serve loop answered nothing for the credits and still serves.
	h.send(t, &sbi.Message{Type: sbi.MsgRequest, ID: 2, Op: sbi.OpPing})
	if m := h.reply(t); m.ID != 2 || m.Type != sbi.MsgDone {
		t.Fatalf("ping after the credits: %+v", m)
	}
}

// pausedLogic pauses a CounterLogic's export before its third key until
// released.
type pausedLogic struct {
	*mbtest.CounterLogic
	reached, release chan struct{}
}

func (l pausedLogic) GetPerflow(class state.Class, m packet.FieldMatch, emit func(key packet.FlowKey, build func(mark func()) ([]byte, error)) error) error {
	n := 0
	return l.CounterLogic.GetPerflow(class, m, func(key packet.FlowKey, build func(mark func()) ([]byte, error)) error {
		if n++; n == 3 {
			close(l.reached)
			<-l.release
		}
		return emit(key, build)
	})
}

// TestEndTransactionSettlesRunningGet: a transaction ended while its get is
// still exporting (a rollback after an aborted move) cancels the get and
// waits for it before clearing, so the get marks nothing afterwards and its
// end reaches the controller before the end-transaction ack.
func TestEndTransactionSettlesRunningGet(t *testing.T) {
	logic := pausedLogic{mbtest.NewCounterLogic(16), make(chan struct{}), make(chan struct{})}
	logic.Preload(10)
	h := newHarness(t, logic)
	h.send(t, &sbi.Message{Type: sbi.MsgRequest, ID: 1, Op: sbi.OpGetSupportPerflow, Match: packet.MatchAll, Window: 64})
	<-logic.reached
	h.send(t, &sbi.Message{Type: sbi.MsgRequest, ID: 2, Op: sbi.OpEndTransaction, Match: packet.MatchAll})
	// Unpausing later lets a clear that did not wait run first.
	time.Sleep(20 * time.Millisecond)
	close(logic.release)
	getEnded := false
	for {
		m := h.reply(t)
		if m.ID == 1 && m.Type != sbi.MsgChunk {
			if m.Type != sbi.MsgError || !strings.Contains(m.Error, "cancelled") {
				t.Fatalf("the get ended with %+v, want it cancelled", m)
			}
			getEnded = true
		}
		if m.ID == 2 {
			if !getEnded {
				t.Fatal("end-transaction acked while its get was still running")
			}
			break
		}
	}
	if n := h.rt.MarkedKeys(); n != 0 {
		t.Fatalf("%d keys marked after the transaction ended", n)
	}
}

// TestSessionEndStopsItsGets: a session that ends while its connection can
// still carry frames (here the controller sent a frame the middlebox cannot
// decode) stops its gets at their next frame, before a redial could start a
// session whose clears they would outlive.
func TestSessionEndStopsItsGets(t *testing.T) {
	logic := pausedLogic{mbtest.NewCounterLogic(16), make(chan struct{}), make(chan struct{})}
	logic.Preload(10)
	tr := sbi.NewMemTransport()
	l, err := tr.Listen("ctrl")
	if err != nil {
		t.Fatal(err)
	}
	accepted := make(chan net.Conn, 1)
	go func() {
		if raw, err := l.Accept(); err == nil {
			accepted <- raw
		}
	}()
	rt := mbox.New("mb1", logic, mbox.Options{Codec: sbi.CodecJSON})
	defer rt.Close()
	go func() { _ = rt.Connect(tr, "ctrl") }()
	raw := <-accepted
	defer raw.Close()
	ctrl := sbi.NewConn(raw)
	if _, err := ctrl.Receive(); err != nil { // the hello
		t.Fatal(err)
	}
	go func() { // a controller that keeps reading
		for _, err := ctrl.Receive(); err == nil; _, err = ctrl.Receive() {
		}
	}()
	if err := ctrl.Send(&sbi.Message{Type: sbi.MsgRequest, ID: 1, Op: sbi.OpGetSupportPerflow, Match: packet.MatchAll, Window: 64}); err != nil {
		t.Fatal(err)
	}
	<-logic.reached
	if _, err := raw.Write([]byte("{\n")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // the serve loop sees the session end
	close(logic.release)
	rt.Close() // waits for the get
	if n := rt.MarkedKeys(); n != 3 {
		t.Fatalf("the get marked %d of 10 keys, want the 3 it reached before the session ended", n)
	}
}

// reversedLogic exports a CounterLogic's keys in descending FlowID order.
type reversedLogic struct{ *mbtest.CounterLogic }

func (l reversedLogic) GetPerflow(class state.Class, m packet.FieldMatch, emit func(key packet.FlowKey, build func(mark func()) ([]byte, error)) error) error {
	type chunk struct {
		key   packet.FlowKey
		build func(mark func()) ([]byte, error)
	}
	var all []chunk
	err := l.CounterLogic.GetPerflow(class, m, func(key packet.FlowKey, build func(mark func()) ([]byte, error)) error {
		all = append(all, chunk{key, build})
		return nil
	})
	slices.SortFunc(all, func(a, b chunk) int { return b.key.Compare(a.key) })
	for i := 0; i < len(all) && err == nil; i++ {
		err = emit(all[i].key, all[i].build)
	}
	return err
}

// TestGetMarksAnyExportOrder: the marks are a set, so a get whose logic
// exports in descending order succeeds and marks every key it exported. A
// packet on each key raises one reprocess event, and the delete that ends
// the move clears every mark, though its match names the flows by their
// source, the reverse of the counter's canonical keys.
func TestGetMarksAnyExportOrder(t *testing.T) {
	logic := reversedLogic{mbtest.NewCounterLogic(8)}
	h := newHarness(t, logic)
	const flows = 3
	for i := byte(1); i <= flows; i++ {
		h.rt.HandlePacket(pkt(i, 1000*uint16(i)))
	}
	h.rt.Drain(time.Second)
	h.send(t, &sbi.Message{Type: sbi.MsgRequest, ID: 1, Op: sbi.OpGetSupportPerflow, Match: packet.MatchAll})
	chunks, count := h.collectGet(t, 1)
	if count != flows || len(chunks) != flows {
		t.Fatalf("descending export: %d chunks, count %d; want %d", len(chunks), count, flows)
	}
	for i := 1; i < len(chunks); i++ {
		if chunks[i].Key.Compare(chunks[i-1].Key) >= 0 {
			t.Fatalf("export order %v is not descending", chunks)
		}
	}
	if n := h.rt.MarkedKeys(); n != flows {
		t.Fatalf("%d keys marked, want %d", n, flows)
	}
	noEvent := func(when string) {
		t.Helper()
		select {
		case ev := <-h.events:
			t.Fatalf("%s: unexpected event %+v", when, ev.Event)
		case <-time.After(50 * time.Millisecond):
		}
	}
	for i := byte(1); i <= flows; i++ {
		h.rt.HandlePacket(pkt(i, 1000*uint16(i)))
		h.rt.Drain(time.Second)
		select {
		case ev := <-h.events:
			if ev.Event.Kind != sbi.EventReprocess {
				t.Fatalf("flow %d: event %+v", i, ev.Event)
			}
		case <-time.After(time.Second):
			t.Fatalf("flow %d: no reprocess event", i)
		}
	}
	noEvent("after one packet a flow")
	m, _ := packet.ParseFieldMatch("[nw_src=10.0.0.0/24]")
	h.send(t, &sbi.Message{Type: sbi.MsgRequest, ID: 2, Op: sbi.OpDelSupportPerflow, Match: m})
	if r := h.reply(t); r.Type != sbi.MsgDone || r.Count != flows {
		t.Fatalf("del ack: %+v", r)
	}
	if n := h.rt.MarkedKeys(); n != 0 {
		t.Fatalf("%d keys marked after the delete", n)
	}
	h.rt.HandlePacket(pkt(1, 1000))
	h.rt.Drain(time.Second)
	noEvent("after the delete")
}
