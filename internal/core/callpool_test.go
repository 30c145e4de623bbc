package core

// White-box tests for the reply channels on the move path: a reply racing
// the waiter's abandonment (timeout, error) must never surface inside a later
// call, and a stream that overruns its window fails only itself.

import (
	"net"
	"sync"
	"testing"
	"time"

	"openmb/internal/sbi"
)

// newCallConnPair returns an mbConn whose read loop is running against a
// scripted peer side.
func newCallConnPair(t *testing.T) (*mbConn, *sbi.Conn) {
	t.Helper()
	ctrlSide, mbSide := net.Pipe()
	mb := &mbConn{name: "mb", conn: sbi.NewConn(ctrlSide), pending: map[uint64]*call{}}
	peer := sbi.NewConn(mbSide)
	go func() { _ = mb.readLoop() }()
	t.Cleanup(func() {
		mb.conn.Close()
		peer.Close()
	})
	return mb, peer
}

// TestLateReplyNeverLeaksIntoRecycledCall hammers the race between the read
// loop delivering a reply and the waiter abandoning the call: whatever the
// interleaving, the next call must only ever observe its own reply. Run with
// -race this also checks dropCall's delivery barrier.
func TestLateReplyNeverLeaksIntoRecycledCall(t *testing.T) {
	mb, peer := newCallConnPair(t)
	for round := 0; round < 300; round++ {
		idOld, _ := mb.newCall(nil, 1)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The reply races dropCall below; net.Pipe is synchronous,
			// so this returns once the read loop picked the frame up.
			_ = peer.Send(&sbi.Message{Type: sbi.MsgDone, ID: idOld})
		}()
		mb.dropCall(idOld) // the waiter gave up (timeout path)
		wg.Wait()

		idNew, cl := mb.newCall(nil, 1)
		if err := peer.Send(&sbi.Message{Type: sbi.MsgDone, ID: idNew}); err != nil {
			t.Fatal(err)
		}
		select {
		case m := <-cl.ch:
			if m.ID != idNew {
				t.Fatalf("round %d: reply %d leaked into call %d", round, m.ID, idNew)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("round %d: reply for call %d never arrived", round, idNew)
		}
		mb.dropCall(idNew)
	}
}

// TestOverrunFailsOnlyItsCall: a peer that sends a stream more frames than
// its window holds fails that one call, after the frames that fit; the read
// loop never blocks on it and goes on delivering other calls' replies.
func TestOverrunFailsOnlyItsCall(t *testing.T) {
	mb, peer := newCallConnPair(t)
	id, cl := mb.newCall(nil, 3) // a window of two frames plus the done
	other, ocl := mb.newCall(nil, 1)
	go func() {
		for i := 0; i < 4; i++ {
			_ = peer.Send(&sbi.Message{Type: sbi.MsgChunk, ID: id})
		}
		_ = peer.Send(&sbi.Message{Type: sbi.MsgDone, ID: other})
	}()
	select {
	case m := <-ocl.ch:
		if m.ID != other {
			t.Fatalf("reply %d delivered to call %d", m.ID, other)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the read loop stalled behind the overrun stream")
	}
	for i := 0; i < 3; i++ {
		if _, ok := <-cl.ch; !ok {
			t.Fatalf("the overrun call lost frame %d of the three that fit", i)
		}
	}
	if _, ok := <-cl.ch; ok || cl.err != errOverrun {
		t.Fatalf("overrun call: channel open %v, err %v; want closed with %v", ok, cl.err, errOverrun)
	}
	mb.dropCall(id)
	mb.dropCall(other)
}
