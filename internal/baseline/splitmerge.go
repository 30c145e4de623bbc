package baseline

import (
	"sync"
	"time"

	"openmb/internal/mbox"
	"openmb/internal/packet"
	"openmb/internal/state"
)

// SplitMerge implements the halt-based migration of Split/Merge (§2.1,
// §8.1.2): while per-flow state moves between instances, traffic to the
// affected middlebox is suspended and buffered; when the move completes, the
// buffer drains to the new instance. Atomicity is trivially preserved — at
// the cost of added per-packet latency, which is what the paper measures
// (244 packets buffered, +863 ms average processing latency at 1000 chunks
// and 1000 pkt/s).
//
// Shared state is NOT moved: Split/Merge's per-flow abstractions cannot
// express it (Table 2: scale-down with RE or PRADS middleboxes is
// unsupported).

// HaltBuffer is a packet valve placed in front of a middlebox. While
// halted, arriving packets queue with their arrival timestamps; Release
// drains them to the destination and reports the added latency.
type HaltBuffer struct {
	mu      sync.Mutex
	halted  bool
	queue   []timedPacket
	forward func(p *packet.Packet)
}

type timedPacket struct {
	p  *packet.Packet
	at time.Time
}

// NewHaltBuffer returns a valve forwarding to the given function.
func NewHaltBuffer(forward func(p *packet.Packet)) *HaltBuffer {
	return &HaltBuffer{forward: forward}
}

// HandlePacket queues p while the valve is halted and forwards it
// otherwise. Callers feed the valve directly; it is never attached to a
// network.
func (h *HaltBuffer) HandlePacket(p *packet.Packet) {
	h.mu.Lock()
	if h.halted {
		h.queue = append(h.queue, timedPacket{p: p, at: time.Now()})
		h.mu.Unlock()
		return
	}
	fwd := h.forward
	h.mu.Unlock()
	if fwd == nil {
		// No destination wired: the packet is dropped, and the borrowed
		// reference released with it.
		p.Release()
		return
	}
	fwd(p)
}

// Halt starts buffering.
func (h *HaltBuffer) Halt() {
	h.mu.Lock()
	h.halted = true
	h.mu.Unlock()
}

// Release stops buffering, drains the queue to the (possibly new)
// destination, and returns the number of buffered packets and the total
// added latency (sum over packets of time spent in the buffer).
func (h *HaltBuffer) Release(forward func(p *packet.Packet)) (buffered int, addedLatency time.Duration) {
	h.mu.Lock()
	h.halted = false
	queue := h.queue
	h.queue = nil
	if forward != nil {
		h.forward = forward
	}
	fwd := h.forward
	h.mu.Unlock()
	now := time.Now()
	for _, tp := range queue {
		addedLatency += now.Sub(tp.at)
		if fwd != nil {
			fwd(tp.p)
		} else {
			// No destination: the buffered packets are dropped, and
			// their borrowed references released with them.
			tp.p.Release()
		}
	}
	return len(queue), addedLatency
}

// QueueLen returns the current buffer occupancy.
func (h *HaltBuffer) QueueLen() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.queue)
}

// MoveResult summarizes a Split/Merge migration.
type MoveResult struct {
	// ChunksMoved counts per-flow chunks transferred (both classes).
	ChunksMoved int
	// MoveDuration is the wall time of the state transfer (the traffic
	// suspension window).
	MoveDuration time.Duration
	// Buffered and AddedLatency come from the halt buffer.
	Buffered     int
	AddedLatency time.Duration
}

// AvgAddedLatency returns the mean buffering delay per buffered packet.
func (r MoveResult) AvgAddedLatency() time.Duration {
	if r.Buffered == 0 {
		return 0
	}
	return r.AddedLatency / time.Duration(r.Buffered)
}

// Move performs a Split/Merge-style migration: halt traffic at the valve,
// transfer all matching per-flow state from src to dst synchronously, then
// release the valve toward the destination.
func Move(valve *HaltBuffer, src, dst mbox.Logic, m packet.FieldMatch, releaseTo func(p *packet.Packet)) (MoveResult, error) {
	var res MoveResult
	valve.Halt()
	start := time.Now()
	for _, class := range []state.Class{state.Supporting, state.Reporting} {
		err := src.GetPerflow(class, m, func(key packet.FlowKey, build func(func()) ([]byte, error)) error {
			blob, err := build(func() {})
			if err != nil {
				return err
			}
			if err := dst.PutPerflow(class, state.Chunk{Key: key, Blob: blob}); err != nil {
				return err
			}
			res.ChunksMoved++
			return nil
		})
		if err != nil {
			valve.Release(nil) // never leave traffic suspended
			return res, err
		}
		if _, err := src.DelPerflow(class, m); err != nil {
			valve.Release(nil)
			return res, err
		}
	}
	res.MoveDuration = time.Since(start)
	res.Buffered, res.AddedLatency = valve.Release(releaseTo)
	return res, nil
}
