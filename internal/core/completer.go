package core

import (
	"container/heap"
	"sync"
	"time"
)

// completer finishes transactions after event quiescence: a single timer
// goroutine owning a deadline heap. Each pending completion sleeps exactly
// until its earliest possible quiescence instant, and a transaction that saw
// events in the meantime is pushed back to its new deadline instead of being
// polled.
type completer struct {
	ctrl *Controller

	mu      sync.Mutex
	pending completionHeap
	started bool
	stopped bool
	wake    chan struct{}
	stop    chan struct{}
}

// completion is one scheduled transaction finish.
type completion struct {
	t   *txn
	due int64 // unix nanos of the next quiescence check
	// finish completes the transaction; it runs on its own goroutine
	// because it issues blocking southbound calls.
	finish func()
}

type completionHeap []*completion

func (h completionHeap) Len() int           { return len(h) }
func (h completionHeap) Less(i, j int) bool { return h[i].due < h[j].due }
func (h completionHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *completionHeap) Push(x any)        { *h = append(*h, x.(*completion)) }
func (h *completionHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return e
}

func newCompleter(c *Controller) *completer {
	return &completer{ctrl: c, wake: make(chan struct{}, 1), stop: make(chan struct{})}
}

// schedule queues t to be finished once its source has been quiet for the
// controller's period. finish runs exactly once, on its own goroutine. The
// timer goroutine starts lazily with the first scheduled completion.
func (c *completer) schedule(t *txn, finish func()) {
	e := &completion{t: t, due: t.quietAt(c.ctrl.opts.QuietPeriod), finish: finish}
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		// The controller is shutting down: complete immediately; the
		// southbound calls inside finish fail fast on closed
		// connections.
		go finish()
		return
	}
	heap.Push(&c.pending, e)
	if !c.started {
		c.started = true
		go c.loop()
	}
	c.mu.Unlock()
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

// close stops the timer goroutine and dispatches every still-pending
// completion immediately; their southbound calls fail fast once the
// connections close, mirroring what the seed's pollers did at shutdown
// without waiting out their quiet periods.
func (c *completer) close() {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	c.stopped = true
	rest := c.pending
	c.pending = nil
	started := c.started
	c.mu.Unlock()
	if started {
		close(c.stop)
	}
	for _, e := range rest {
		go e.finish()
	}
}

func (c *completer) loop() {
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		c.mu.Lock()
		wait := time.Hour
		if len(c.pending) > 0 {
			wait = time.Duration(c.pending[0].due - time.Now().UnixNano())
		}
		c.mu.Unlock()
		if wait > 0 {
			if !timer.Stop() {
				select {
				case <-timer.C:
				default:
				}
			}
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-c.wake:
			case <-c.stop:
				return
			}
		}
		now := time.Now().UnixNano()
		quiet := int64(c.ctrl.opts.QuietPeriod)
		var ready []*completion
		c.mu.Lock()
		for len(c.pending) > 0 && c.pending[0].due <= now {
			e := heap.Pop(&c.pending).(*completion)
			// Quiet means no events for the period AND the source's
			// event pipeline drained: events the read loop accepted but
			// the router has not routed will touch the quiet clock when
			// they route, and completing past them would clear source
			// marks early and orphan their replays — so re-poll. The
			// pipeline check runs FIRST: if it reads empty at some
			// instant, every routed event's touch happened before that
			// instant and is visible to the lastEvent read that follows;
			// the reverse order races a router draining its backlog
			// between the two loads and reports quiet right after a burst.
			if e.t.src.eventsInFlight() > 0 {
				e.due = now + quiet/5
				heap.Push(&c.pending, e)
				continue
			}
			if due := e.t.lastEvent.Load() + quiet; due > now {
				// Events arrived since this deadline was set: not
				// quiet yet. Sleep until the new earliest instant.
				e.due = due
				heap.Push(&c.pending, e)
				continue
			}
			ready = append(ready, e)
		}
		c.mu.Unlock()
		for _, e := range ready {
			go e.finish()
		}
	}
}
