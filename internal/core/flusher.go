package core

import (
	"sync"

	"openmb/internal/sbi"
)

// connFlusher is the controller's cross-connection flush scheduler: one
// goroutine flushes every dirty southbound connection, instead of each
// sender paying (or deferring ad hoc) its own per-frame flush. Senders
// encode with SendDeferred and mark the connection dirty; the scheduler
// drains the dirty list and issues one Flush per connection per pass, so a
// controller juggling requests, pings, and reprocess forwards across many
// middleboxes amortizes flush syscalls across all of them.
type connFlusher struct {
	mu     sync.Mutex
	cond   sync.Cond
	dirty  []*sbi.Conn
	enq    map[*sbi.Conn]bool
	closed bool
	wg     sync.WaitGroup
}

func newConnFlusher() *connFlusher {
	f := &connFlusher{enq: map[*sbi.Conn]bool{}}
	f.cond.L = &f.mu
	f.wg.Add(1)
	go f.run()
	return f
}

// send encodes m on conn without an inline flush and schedules the
// connection for the scheduler's next pass. The frame reaches the transport
// within one scheduler wakeup — bounded by goroutine scheduling latency, far
// inside every southbound call timeout.
func (f *connFlusher) send(conn *sbi.Conn, m *sbi.Message) error {
	err := conn.SendDeferred(m)
	f.mark(conn)
	return err
}

// mark schedules conn for the next flush pass (idempotent while already
// scheduled). After close it degrades to an inline flush, so late senders —
// a heartbeat racing shutdown — still publish their frame.
func (f *connFlusher) mark(conn *sbi.Conn) {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		_ = conn.Flush()
		return
	}
	if !f.enq[conn] {
		f.enq[conn] = true
		f.dirty = append(f.dirty, conn)
		if len(f.dirty) == 1 {
			f.cond.Signal()
		}
	}
	f.mu.Unlock()
}

func (f *connFlusher) run() {
	defer f.wg.Done()
	var batch []*sbi.Conn
	for {
		f.mu.Lock()
		for len(f.dirty) == 0 && !f.closed {
			f.cond.Wait()
		}
		if len(f.dirty) == 0 {
			f.mu.Unlock()
			return
		}
		batch, f.dirty = f.dirty, batch[:0]
		for _, c := range batch {
			delete(f.enq, c)
		}
		f.mu.Unlock()
		// A connection re-marked while we flush it re-enters the dirty
		// list and is caught by the next pass; frames encoded after our
		// Flush are never stranded.
		for i, c := range batch {
			_ = c.Flush()
			batch[i] = nil
		}
	}
}

// close drains the remaining dirty list and stops the scheduler goroutine.
func (f *connFlusher) close() {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	f.cond.Broadcast()
	f.wg.Wait()
}
