package packet

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Pool recycles Packet values so the simulator's data path performs no
// steady-state heap allocation per packet. It implements the borrow/release
// discipline the zero-copy netsim path is built on:
//
//   - Get/Clone hand out a packet holding one reference;
//   - whoever is handed a pooled packet owns exactly one reference and must
//     either pass it on (a netsim Send/Inject or a runtime forward transfers
//     ownership) or call Release;
//   - Retain takes an additional reference for holders that keep the packet
//     past the hand-off (a recording Host, an event attachment);
//   - when the last reference is released the packet returns to the free
//     list, payload buffer and all.
//
// Heap packets (anything not obtained from a Pool) are outside the
// discipline: Retain and Release on them are no-ops, so code written against
// the borrow contract handles them unchanged.
type Pool struct {
	opts PoolOptions
	// live tracks outstanding reference counts in accounting mode, under mu:
	// the checker behind the leak/double-release tests. Every Retain and
	// Release reads the pointer, so it stays off the lines the sides write.
	live map[*Packet]int32
	_    [64]byte

	// The pool has two sides, so that a borrower on one core and a releaser
	// on another share no lock and no counter per packet. Get pops free under
	// mu; recycle pushes returned under retMu, a cache line away; Get swaps
	// the lists when free runs dry, the only cross-side hand-off — once per
	// returned-list's worth of packets. Lock order: mu, then retMu.
	mu         sync.Mutex
	free       []*Packet
	gets, news uint64
	_          [64]byte

	retMu    sync.Mutex
	returned []*Packet
	// releases counts final releases; gets - releases is the number of
	// packets currently borrowed. Zero after quiesce means every borrow was
	// balanced.
	releases uint64
}

// PoolOptions configures a Pool.
type PoolOptions struct {
	// Accounting enables the invariant checker: every reference operation
	// is cross-checked against a live table under the pool lock, so leaks
	// (borrowed packets never released) are attributable and double
	// releases are caught even after the packet was recycled. It is meant
	// for tests; the fast path keeps the count in the packet and takes only
	// its own side's lock.
	Accounting bool
	// PayloadCap preallocates this much payload capacity in fresh packets
	// (default 256), so pooled clones of typical trace payloads never grow
	// their buffer after warm-up.
	PayloadCap int
}

// NewPool creates an empty pool.
func NewPool(opts PoolOptions) *Pool {
	if opts.PayloadCap <= 0 {
		opts.PayloadCap = 256
	}
	p := &Pool{opts: opts}
	if opts.Accounting {
		p.live = map[*Packet]int32{}
	}
	return p
}

// Get returns a reset packet holding one reference. It allocates only when
// neither side of the pool holds a free packet.
func (pl *Pool) Get() *Packet {
	pl.mu.Lock()
	pl.gets++
	if len(pl.free) == 0 {
		pl.retMu.Lock()
		pl.free, pl.returned = pl.returned, pl.free
		pl.retMu.Unlock()
	}
	var p *Packet
	if n := len(pl.free); n > 0 {
		p = pl.free[n-1]
		pl.free[n-1] = nil
		pl.free = pl.free[:n-1]
	} else {
		pl.news++
		p = &Packet{Payload: make([]byte, 0, pl.opts.PayloadCap)}
		p.pool = pl
	}
	if pl.live != nil {
		pl.live[p] = 1
	}
	pl.mu.Unlock()
	p.refs = 1
	return p
}

// Clone returns a pooled deep copy of src (which may be a heap packet or
// belong to any pool), holding one reference.
func (pl *Pool) Clone(src *Packet) *Packet {
	q := pl.Get()
	src.copyFieldsTo(q)
	q.Payload = append(q.Payload[:0], src.Payload...)
	return q
}

// release drops one reference; on the last it resets the packet and returns
// it to the free list. Releasing more references than were held panics: a
// double release is a caller bug that would otherwise corrupt a recycled
// packet silently.
func (pl *Pool) release(p *Packet) {
	if pl.live != nil {
		pl.releaseAccounted(p)
		return
	}
	n := atomic.AddInt32(&p.refs, -1)
	if n < 0 {
		panic("packet: release of a packet with no outstanding references (double release?)")
	}
	if n > 0 {
		return
	}
	pl.recycle(p)
}

// releaseAccounted is the accounting-mode release: reference counts live in
// the pool's table, checked under the pool lock, so a release of an already
// freed (possibly recycled) packet is always caught. The refs update happens
// under the same lock: deferring it past the unlock would race the final
// releaser's recycle (Reset's plain write to refs), since nothing else
// orders the two.
func (pl *Pool) releaseAccounted(p *Packet) {
	pl.mu.Lock()
	n, ok := pl.live[p]
	if !ok || n <= 0 {
		pl.mu.Unlock()
		panic("packet: release of a packet with no outstanding references (double release?)")
	}
	n--
	atomic.AddInt32(&p.refs, -1)
	if n > 0 {
		pl.live[p] = n
		pl.mu.Unlock()
		return
	}
	delete(pl.live, p)
	pl.mu.Unlock()
	pl.recycle(p)
}

func (pl *Pool) recycle(p *Packet) {
	p.Reset()
	pl.retMu.Lock()
	pl.releases++
	pl.returned = append(pl.returned, p)
	pl.retMu.Unlock()
}

// retain adds one reference. In accounting mode the refs update stays under
// the pool lock for the same reason as releaseAccounted's.
func (pl *Pool) retain(p *Packet) {
	if pl.live == nil {
		atomic.AddInt32(&p.refs, 1)
		return
	}
	pl.mu.Lock()
	n, ok := pl.live[p]
	if !ok || n <= 0 {
		pl.mu.Unlock()
		panic("packet: retain of a packet with no outstanding references")
	}
	pl.live[p] = n + 1
	atomic.AddInt32(&p.refs, 1)
	pl.mu.Unlock()
}

// PoolStats is a snapshot of pool counters.
type PoolStats struct {
	// Gets counts Get/Clone calls, News the subset that allocated a fresh
	// packet (steady state: News stops growing), Releases the final
	// releases that recycled a packet.
	Gets, News, Releases uint64
	// Outstanding is the number of currently borrowed packets.
	Outstanding int64
	// FreeLen is the current free-list length.
	FreeLen int
}

// Stats returns an exact snapshot of the pool's counters: both sides are
// locked, so no Get or final release falls between two fields.
func (pl *Pool) Stats() PoolStats {
	pl.mu.Lock()
	pl.retMu.Lock()
	st := PoolStats{
		Gets:        pl.gets,
		News:        pl.news,
		Releases:    pl.releases,
		Outstanding: int64(pl.gets - pl.releases),
		FreeLen:     len(pl.free) + len(pl.returned),
	}
	pl.retMu.Unlock()
	pl.mu.Unlock()
	return st
}

// Outstanding returns the number of borrowed packets not yet fully released.
func (pl *Pool) Outstanding() int64 { return pl.Stats().Outstanding }

// CheckLeaks returns nil when every borrowed packet has been released
// exactly once (Outstanding == 0). In accounting mode the error lists the
// leaked packets; otherwise it reports only the count. Call after the
// network has quiesced and all holders (hosts, runtimes) have drained.
func (pl *Pool) CheckLeaks() error {
	n := pl.Outstanding()
	if n == 0 {
		return nil
	}
	if pl.live == nil {
		return fmt.Errorf("packet: %d borrowed packets never released", n)
	}
	pl.mu.Lock()
	var leaks []string
	for p, refs := range pl.live {
		leaks = append(leaks, fmt.Sprintf("%s refs=%d", p, refs))
	}
	pl.mu.Unlock()
	sort.Strings(leaks)
	const maxListed = 8
	if len(leaks) > maxListed {
		leaks = append(leaks[:maxListed], fmt.Sprintf("... and %d more", len(leaks)-maxListed))
	}
	return fmt.Errorf("packet: %d borrowed packets never released: %s", n, strings.Join(leaks, "; "))
}

// Pooled reports whether p is managed by a pool (and therefore subject to
// the borrow/release discipline).
func (p *Packet) Pooled() bool { return p.pool != nil }

// Exclusive reports whether p is pooled and holds exactly one reference: the
// caller's borrow is the only one, so no other holder can observe a write to
// p. A heap packet is never exclusive — nothing counts its holders.
func (p *Packet) Exclusive() bool { return p.pool != nil && atomic.LoadInt32(&p.refs) == 1 }

// Retain takes an additional reference on a pooled packet, for holders that
// keep it beyond the hand-off that delivered it. No-op for heap packets.
func (p *Packet) Retain() {
	if p.pool != nil {
		p.pool.retain(p)
	}
}

// Release drops one reference on a pooled packet, recycling it when it was
// the last. No-op for heap packets, so callers can release unconditionally.
func (p *Packet) Release() {
	if p.pool != nil {
		p.pool.release(p)
	}
}

// Reset clears every field but keeps the payload buffer's capacity (and the
// owning pool), so a recycled packet absorbs its next payload without
// allocating.
func (p *Packet) Reset() {
	payload := p.Payload[:0]
	pool := p.pool
	*p = Packet{}
	p.Payload = payload
	p.pool = pool
}
