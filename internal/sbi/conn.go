package sbi

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Conn frames Messages over a byte stream. Send is safe for concurrent use;
// the paper's controller dedicates one thread per MB to state operations and
// one to events, both of which write to the same connection.
//
// # Write path: coalesced flushing
//
// Encoding appends frames to a buffered writer; when and how the buffer is
// flushed is the per-message overhead the Figure 9(c)/(d) and Figure 10
// experiments measure:
//
//   - Send encodes the frame, marks the writer dirty, and flushes only when
//     no other flushing sender (Send or Flush — never SendDeferred, which
//     would not honor the inheritance) is waiting on the send mutex —
//     flush-on-idle. The last flushing sender out always flushes, so a
//     frame never sits unflushed once the send path goes quiescent; no
//     timer goroutine is needed. Under contention (the move pipeline's put
//     workers, event forwarding racing a stream) consecutive frames share
//     one flush.
//   - SendDeferred encodes without flushing at all, for producers that know
//     more frames follow immediately (the middlebox get streamer, reply
//     coalescing in the southbound serve loop). The stream's terminating
//     Send — or an explicit Flush — publishes the tail; the buffered writer
//     auto-writes full buffers meanwhile, so long streams still make
//     progress in buffer-sized blocks.
//
// Both codecs only append to the buffer, so these rules are the one write
// rule for every connection.
//
// A Send can return with its frame still buffered: a waiting flushing sender
// inherits it. Code that closes a Conn right after sending must Flush first,
// unless no other goroutine can be sending on it.
//
// A Conn starts in the JSON codec (newline-delimited JSON, the paper
// prototype's format). After the hello exchange both ends may switch to the
// binary codec with Upgrade; see the Codec field of MsgHello.
type Conn struct {
	raw net.Conn
	br  *bufio.Reader
	bw  *bufio.Writer

	sendMu sync.Mutex
	recvMu sync.Mutex

	// flushers counts goroutines inside the FLUSHING send operations —
	// Send and Flush, not SendDeferred: incremented before taking sendMu,
	// decremented while still holding it. A Send whose decrement leaves
	// other flushers accounted for skips its flush — whoever is waiting
	// inherits the dirty buffer and repeats the test, so the last
	// flushing sender out always flushes (the flush-on-idle invariant).
	// Deferred senders must not be counted: they never flush, so a Send
	// deferring to one would strand its frame in the buffer.
	flushers atomic.Int32

	// dirty marks encoded-but-unflushed bytes; guarded by sendMu.
	dirty bool

	// codec is guarded by both mutexes: readers hold recvMu, writers hold
	// sendMu, and Upgrade holds both.
	codec wireCodec

	closeOnce sync.Once
	closeErr  error

	// Stats counters, read via Counters. Atomics, not mutex-guarded state:
	// Receive holds recvMu for the whole blocking read on an idle
	// connection, so a lock-taking snapshot would stall until the next
	// frame arrives.
	sent, received, flushes atomic.Uint64
}

// NewConn wraps a transport connection. The initial codec is JSON.
func NewConn(raw net.Conn) *Conn {
	c := &Conn{raw: raw, br: bufio.NewReaderSize(raw, 64<<10)}
	c.bw = bufio.NewWriterSize(transportWriter{c}, 64<<10)
	c.codec = newJSONCodec(c.br, c.bw)
	return c
}

// transportWriter sits under the buffered writer and counts every write
// that reaches the transport, whichever path issued it.
type transportWriter struct{ c *Conn }

func (w transportWriter) Write(p []byte) (int, error) {
	w.c.flushes.Add(1)
	return w.c.raw.Write(p)
}

// Upgrade switches the connection to the named codec. Call it only at a
// protocol quiescence point — immediately after sending or receiving the
// hello — so no frame straddles the switch.
func (c *Conn) Upgrade(codec Codec) error {
	parsed, err := ParseCodec(string(codec))
	if err != nil {
		return err
	}
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	c.recvMu.Lock()
	defer c.recvMu.Unlock()
	// Publish any frames encoded under the old codec before switching.
	if err := c.flushLocked(); err != nil {
		return err
	}
	if parsed == c.codec.name() {
		return nil
	}
	switch parsed {
	case CodecBinary:
		c.codec = newBinaryCodec(c.br, c.bw)
	default:
		c.codec = newJSONCodec(c.br, c.bw)
	}
	return nil
}

// flushLocked flushes the buffered writer if it holds unflushed frames.
// Caller holds sendMu.
func (c *Conn) flushLocked() error {
	if !c.dirty {
		return nil
	}
	c.dirty = false
	return c.bw.Flush()
}

// Send encodes one message and guarantees it reaches the transport once the
// send path goes quiescent (see the write-path notes on Conn). It may be
// called from multiple goroutines.
func (c *Conn) Send(m *Message) error {
	c.flushers.Add(1)
	c.sendMu.Lock()
	err := c.codec.encode(m)
	if err == nil {
		c.sent.Add(1)
		c.dirty = true
	}
	// The decrement must happen while sendMu is still held: decrementing
	// after unlock would let a waiter observe our stale count, skip its own
	// flush, and leave the final frame stranded in the buffer.
	if c.flushers.Add(-1) == 0 {
		if ferr := c.flushLocked(); err == nil {
			err = ferr
		}
	}
	c.sendMu.Unlock()
	if err != nil {
		return fmt.Errorf("sbi: send: %w", err)
	}
	return nil
}

// SendDeferred encodes one message without flushing, for stream producers
// with more frames immediately behind it. The frame is published by the
// buffered writer filling, by any concurrent or later Send going quiescent,
// or by an explicit Flush — every stream must end in one of the latter two
// (the middlebox streamer's terminating done/error Send, the southbound
// loop's flush-at-idle).
func (c *Conn) SendDeferred(m *Message) error {
	// Deliberately NOT counted in flushers: a deferred sender never
	// flushes, so a concurrent Send must not defer its flush to this one
	// (the frames a deferred sender leaves behind are the later flushing
	// operation's responsibility, per the producer contract above).
	c.sendMu.Lock()
	err := c.codec.encode(m)
	if err == nil {
		c.sent.Add(1)
		c.dirty = true
	}
	c.sendMu.Unlock()
	if err != nil {
		return fmt.Errorf("sbi: send: %w", err)
	}
	return nil
}

// Flush publishes any deferred frames to the transport. It counts as a
// flushing sender, so a concurrent Send may safely defer to it.
func (c *Conn) Flush() error {
	c.flushers.Add(1)
	c.sendMu.Lock()
	err := c.flushLocked()
	c.flushers.Add(-1)
	c.sendMu.Unlock()
	return err
}

// ReadBuffered reports how many received bytes are already buffered and
// decodable without touching the transport. The southbound serve loop uses
// it for reply coalescing: while more requests are already queued, replies
// stay deferred; when the loop is about to block on the transport, it
// flushes.
func (c *Conn) ReadBuffered() int {
	return c.br.Buffered()
}

// SetReadDeadline bounds how long the next Receive may block on the
// transport, delegating to the underlying connection (the zero time clears
// it). The accept paths use it so a peer that connects and then stalls —
// a truncated hello, a half-open socket — times out instead of pinning the
// accept goroutine forever. It deliberately does not take the receive
// mutex: its whole point is to fire while a Receive is parked inside it.
func (c *Conn) SetReadDeadline(t time.Time) error {
	return c.raw.SetReadDeadline(t)
}

// Receive decodes the next message. Only one goroutine should receive.
func (c *Conn) Receive() (*Message, error) {
	c.recvMu.Lock()
	defer c.recvMu.Unlock()
	m, err := c.codec.decode()
	if err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) || errors.Is(err, io.ErrClosedPipe) {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("sbi: receive: %w", err)
	}
	c.received.Add(1)
	return m, nil
}

// Counters is a snapshot of a connection's wire counters. Sent/Flushes is
// the frames-per-write ratio the coalesced write path exists to raise, on
// either codec.
type Counters struct {
	// Sent and Received count frames encoded and decoded.
	Sent, Received uint64
	// Flushes counts writes that reached the transport: explicit and
	// flush-on-idle flushes and the buffered writer's full-buffer writes
	// alike.
	Flushes uint64
}

// Counters returns a snapshot of the connection's frame and flush counters.
// It never takes the connection mutexes, so it is safe to call while the
// read loop is parked inside Receive.
//
// Snapshot semantics — the /metrics contract: each field is read with one
// atomic load of a counter that only ever increases, so every field is
// individually monotonic across snapshots and a scraped rate() can never go
// negative. The snapshot is NOT atomic across fields: a scrape concurrent
// with a send may observe the new Sent with the old Flushes (or vice
// versa), so cross-field derivations like frames/flush can be transiently
// off by one frame. That tearing is bounded and self-correcting; making the
// snapshot fully consistent would put a lock on the send path, which is
// exactly what this accessor exists to avoid.
func (c *Conn) Counters() Counters {
	return Counters{
		Sent:     c.sent.Load(),
		Received: c.received.Load(),
		Flushes:  c.flushes.Load(),
	}
}

// Close closes the underlying transport. Safe to call multiple times.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() { c.closeErr = c.raw.Close() })
	return c.closeErr
}
