package sbi

import (
	"net"
	"sync"
	"testing"
	"time"

	"openmb/internal/packet"
	"openmb/internal/state"
)

// The coalesced write path's liveness and batching properties, on both
// codecs: one write rule governs JSON and binary alike. net.Pipe is the
// ideal substrate here: it is synchronous and unbuffered, so a frame that is
// never flushed genuinely never arrives — a liveness bug hangs the peer
// instead of hiding behind kernel socket buffers.

// eachCodec runs fn as one subtest per codec over the two ends of a
// net.Pipe, both switched to that codec. wrap, when non-nil, sits between
// the sending end c1 and its pipe.
func eachCodec(t *testing.T, wrap func(net.Conn) net.Conn, fn func(t *testing.T, c1, c2 *Conn)) {
	for _, codec := range []Codec{CodecJSON, CodecBinary} {
		t.Run(string(codec), func(t *testing.T) {
			a, b := net.Pipe()
			if wrap != nil {
				a = wrap(a)
			}
			c1, c2 := NewConn(a), NewConn(b)
			defer c1.Close()
			defer c2.Close()
			for _, c := range []*Conn{c1, c2} {
				if err := c.Upgrade(codec); err != nil {
					t.Fatal(err)
				}
			}
			fn(t, c1, c2)
		})
	}
}

// receiveAsync pulls n messages on its own goroutine and reports completion.
func receiveAsync(t *testing.T, c *Conn, n int) <-chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if _, err := c.Receive(); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	return done
}

// TestCoalescedFlushLiveness: a lone Send must reach the peer — the
// flush-on-idle rule's bounded-latency guarantee. If the last sender out
// did not flush, the peer's Receive would block forever on the synchronous
// pipe.
func TestCoalescedFlushLiveness(t *testing.T) {
	eachCodec(t, nil, func(t *testing.T, c1, c2 *Conn) {
		done := receiveAsync(t, c2, 3)
		for i := 0; i < 3; i++ {
			if err := c1.Send(&Message{Type: MsgDone, ID: uint64(i + 1)}); err != nil {
				t.Fatal(err)
			}
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("lone sends never flushed: peer Receive still blocked")
		}
	})
}

// TestDeferredFramesFlushedByNextSend: SendDeferred leaves frames in the
// buffer; the stream-terminating Send publishes them together with its own
// frame, and the explicit Flush path works too.
func TestDeferredFramesFlushedByNextSend(t *testing.T) {
	eachCodec(t, nil, func(t *testing.T, c1, c2 *Conn) {
		const deferred = 16
		done := receiveAsync(t, c2, deferred+1)
		for i := 0; i < deferred; i++ {
			if err := c1.SendDeferred(&Message{Type: MsgChunk, ID: uint64(i + 1)}); err != nil {
				t.Fatal(err)
			}
		}
		// The terminating done-frame Send flushes the whole stream.
		if err := c1.Send(&Message{Type: MsgDone, ID: deferred + 1}); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("deferred stream never flushed")
		}
		got := c1.Counters()
		if got.Sent != deferred+1 {
			t.Fatalf("sent = %d, want %d", got.Sent, deferred+1)
		}
		if got.Flushes != 1 {
			t.Fatalf("flushes = %d, want 1 (one flush for the whole stream)", got.Flushes)
		}

		// Explicit Flush publishes a deferred frame with no Send behind it.
		done = receiveAsync(t, c2, 1)
		if err := c1.SendDeferred(&Message{Type: MsgDone, ID: 99}); err != nil {
			t.Fatal(err)
		}
		if err := c1.Flush(); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("explicit Flush did not publish the deferred frame")
		}
	})
}

// slowConn wraps a net.Conn with a per-Write delay, so concurrent senders
// reliably pile up on sendMu and the flush-on-idle coalescing becomes
// deterministic enough to assert on.
type slowConn struct {
	net.Conn
	delay time.Duration
}

func (s *slowConn) Write(p []byte) (int, error) {
	time.Sleep(s.delay)
	return s.Conn.Write(p)
}

// TestFlushOnIdleCoalescesContendingSenders: with several goroutines
// sending over a slow transport, senders queue on sendMu and all but the
// last skip their flush — far fewer flushes than frames — while every
// frame still arrives.
func TestFlushOnIdleCoalescesContendingSenders(t *testing.T) {
	slow := func(c net.Conn) net.Conn { return &slowConn{Conn: c, delay: 200 * time.Microsecond} }
	eachCodec(t, slow, func(t *testing.T, c1, c2 *Conn) {
		const senders, perSender = 4, 32
		done := receiveAsync(t, c2, senders*perSender)
		var wg sync.WaitGroup
		for g := 0; g < senders; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < perSender; i++ {
					if err := c1.Send(&Message{Type: MsgDone, ID: uint64(g*1000 + i + 1)}); err != nil {
						t.Error(err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("frames lost under contention")
		}
		got := c1.Counters()
		if got.Sent != senders*perSender {
			t.Fatalf("sent = %d, want %d", got.Sent, senders*perSender)
		}
		if got.Flushes >= got.Sent/2 {
			t.Fatalf("flushes = %d of %d frames: flush-on-idle is not coalescing", got.Flushes, got.Sent)
		}
	})
}

// writeCounter wraps a net.Conn and counts the writes that reach it.
type writeCounter struct {
	net.Conn
	mu     sync.Mutex
	writes uint64
}

func (w *writeCounter) Write(p []byte) (int, error) {
	w.mu.Lock()
	w.writes++
	w.mu.Unlock()
	return w.Conn.Write(p)
}

// TestFlushesCountTransportWrites: Counters.Flushes is the number of writes
// the transport saw, and a deferred stream plus one Flush is one write on
// either codec.
func TestFlushesCountTransportWrites(t *testing.T) {
	var wc *writeCounter
	count := func(c net.Conn) net.Conn { wc = &writeCounter{Conn: c}; return wc }
	eachCodec(t, count, func(t *testing.T, c1, c2 *Conn) {
		const frames = 16
		done := receiveAsync(t, c2, frames)
		for i := 0; i < frames; i++ {
			if err := c1.SendDeferred(&Message{Type: MsgChunk, ID: uint64(i + 1)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := c1.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		wc.mu.Lock()
		writes := wc.writes
		wc.mu.Unlock()
		if writes != 1 {
			t.Fatalf("the transport saw %d writes for %d deferred frames and one Flush, want 1", writes, frames)
		}
		if got := c1.Counters().Flushes; got != writes {
			t.Fatalf("Flushes = %d, the transport saw %d writes", got, writes)
		}
	})
}

// TestBatchedEventFrameOrder: a coalesced event frame decodes with its
// events in seq order and EachEvent walks both representations.
func TestBatchedEventFrameOrder(t *testing.T) {
	a, b := net.Pipe()
	c1, c2 := NewConn(a), NewConn(b)
	defer c1.Close()
	defer c2.Close()
	k, _ := packet.ParseFlowKey("10.0.0.1:1234>192.168.1.2:80/tcp")

	evs := make([]*Event, 5)
	for i := range evs {
		evs[i] = &Event{Kind: EventReprocess, Key: k, Seq: uint64(i + 1), Class: state.Supporting, Packet: []byte{byte(i)}}
	}
	go func() {
		m := &Message{Type: MsgEvent}
		m.SetEvents(evs)
		_ = c1.Send(m)
	}()
	got, err := c2.Receive()
	if err != nil {
		t.Fatal(err)
	}
	if got.EventCount() != len(evs) {
		t.Fatalf("event count = %d, want %d", got.EventCount(), len(evs))
	}
	var seqs []uint64
	got.EachEvent(func(ev *Event) { seqs = append(seqs, ev.Seq) })
	for i, s := range seqs {
		if s != uint64(i+1) {
			t.Fatalf("seq order broken: %v", seqs)
		}
	}

	// The single-event canonical form uses the Event field.
	var m Message
	m.SetEvents(evs[:1])
	if m.Event == nil || m.Events != nil {
		t.Fatalf("SetEvents(1) = %+v, want lone Event field", m)
	}
}

// TestSendNeverDefersToDeferredSender: a Send may skip its flush only when
// another FLUSHING sender is waiting to inherit the dirty buffer. A waiting
// SendDeferred never flushes, so deferring to it would strand the Send's
// frame; with the fix, every Send goroutine's final frame is flushed no
// matter how many deferred senders race it.
func TestSendNeverDefersToDeferredSender(t *testing.T) {
	eachCodec(t, nil, func(t *testing.T, c1, c2 *Conn) {
		const frames = 200
		gotSends := make(chan struct{})
		go func() {
			n := 0
			for n < frames {
				m, err := c2.Receive()
				if err != nil {
					return
				}
				if m.ID < 1000 { // a Send-originated frame
					n++
				}
			}
			close(gotSends)
		}()
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < frames; i++ {
				if err := c1.Send(&Message{Type: MsgDone, ID: uint64(i + 1)}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < frames; i++ {
				if err := c1.SendDeferred(&Message{Type: MsgDone, ID: uint64(1000 + i)}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
		wg.Wait()
		select {
		case <-gotSends:
		case <-time.After(10 * time.Second):
			t.Fatal("a Send's frame was never flushed: Send deferred to a non-flushing waiter")
		}
	})
}
