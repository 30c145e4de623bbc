package packet

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func poolPacket() *Packet {
	return &Packet{
		SrcIP:   netip.AddrFrom4([4]byte{10, 0, 0, 1}),
		DstIP:   netip.AddrFrom4([4]byte{1, 1, 1, 1}),
		Proto:   ProtoTCP,
		SrcPort: 1234, DstPort: 80,
		Seq: 42, Ack: 7, Flags: FlagACK, TTL: 64, ID: 9,
		Payload:   []byte("hello pool"),
		Timestamp: 1000,
	}
}

func TestPoolRecyclesPackets(t *testing.T) {
	pl := NewPool(PoolOptions{})
	p := pl.Get()
	if !p.Pooled() {
		t.Fatal("Get returned an unpooled packet")
	}
	p.Release()
	q := pl.Get()
	if q != p {
		t.Fatal("released packet was not recycled")
	}
	q.Release()
	st := pl.Stats()
	if st.News != 1 || st.Gets != 2 || st.Releases != 2 || st.Outstanding != 0 {
		t.Fatalf("stats after recycle: %+v", st)
	}
}

func TestPoolCloneIsDeepAndReset(t *testing.T) {
	pl := NewPool(PoolOptions{})
	src := poolPacket()
	c := pl.Clone(src)
	if c.String() != src.String() || c.Seq != src.Seq || c.Timestamp != src.Timestamp {
		t.Fatalf("clone differs: %v vs %v", c, src)
	}
	c.Payload[0] = 'X'
	if src.Payload[0] == 'X' {
		t.Fatal("clone shares payload storage with source")
	}
	c.Release()
	// The recycled packet must come back fully reset but keep its payload
	// capacity, so the next clone does not allocate.
	r := pl.Get()
	if r != c {
		t.Fatal("expected the released clone back")
	}
	if r.SrcIP.IsValid() || r.Seq != 0 || len(r.Payload) != 0 {
		t.Fatalf("recycled packet not reset: %+v", r)
	}
	if cap(r.Payload) < len(src.Payload) {
		t.Fatalf("recycled packet lost payload capacity: %d", cap(r.Payload))
	}
	r.Release()
}

func TestPooledPacketCloneDrawsFromPool(t *testing.T) {
	pl := NewPool(PoolOptions{})
	p := pl.Clone(poolPacket())
	q := p.Clone() // Packet.Clone on a pooled packet must use the pool
	if !q.Pooled() {
		t.Fatal("clone of a pooled packet is not pooled")
	}
	p.Release()
	q.Release()
	if err := pl.CheckLeaks(); err != nil {
		t.Fatal(err)
	}
}

func TestHeapPacketRetainReleaseNoops(t *testing.T) {
	p := poolPacket()
	p.Retain()
	p.Release()
	p.Release() // no-ops must tolerate arbitrary imbalance on heap packets
	if q := p.Clone(); q.Pooled() {
		t.Fatal("heap clone became pooled")
	}
}

func TestRetainBalancesRelease(t *testing.T) {
	pl := NewPool(PoolOptions{Accounting: true})
	p := pl.Get()
	p.Retain()
	p.Release()
	if pl.Outstanding() != 1 {
		t.Fatalf("outstanding after retain+release: %d", pl.Outstanding())
	}
	p.Release()
	if err := pl.CheckLeaks(); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleReleasePanics(t *testing.T) {
	for _, accounting := range []bool{false, true} {
		pl := NewPool(PoolOptions{Accounting: accounting})
		p := pl.Get()
		p.Release()
		// Reborrow so the fast path's refcount alone cannot catch the
		// stale release in accounting mode.
		q := pl.Get()
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("double release did not panic (accounting=%v)", accounting)
				}
			}()
			if accounting {
				// q == p after recycling: the stale holder releases
				// the packet it no longer owns... after the packet
				// was already fully released once more.
				q.Release()
				q.Release()
			} else {
				p.Release()
				p.Release()
			}
		}()
	}
}

func TestCheckLeaksReportsBorrowedPackets(t *testing.T) {
	pl := NewPool(PoolOptions{Accounting: true})
	p := pl.Clone(poolPacket())
	q := pl.Get()
	err := pl.CheckLeaks()
	if err == nil {
		t.Fatal("CheckLeaks missed two borrowed packets")
	}
	if !strings.Contains(err.Error(), "2 borrowed") {
		t.Fatalf("leak report: %v", err)
	}
	p.Release()
	q.Release()
	if err := pl.CheckLeaks(); err != nil {
		t.Fatal(err)
	}
}

func TestPoolConcurrentBorrowers(t *testing.T) {
	pl := NewPool(PoolOptions{Accounting: true})
	tpl := poolPacket()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				p := pl.Clone(tpl)
				p.Retain()
				q := p.Clone()
				p.Release()
				q.Release()
				p.Release()
			}
		}()
	}
	wg.Wait()
	if err := pl.CheckLeaks(); err != nil {
		t.Fatal(err)
	}
	if st := pl.Stats(); st.News > 64 {
		t.Fatalf("pool kept allocating under reuse: %+v", st)
	}
}

// refPool is the reference model TestPoolMatchesRefcountReference checks the
// pool against: a plain reference-count map and the counters Stats must
// reproduce. It is shared by a sequence's goroutines under one lock. A
// borrower records a Get after the pool call and a release before it, so the
// model never counts a packet free that the pool still holds borrowed: a
// packet the model sees handed out while it counts references is a real
// double hand-out.
type refPool struct {
	mu       sync.Mutex
	refs     map[*Packet]int
	capOf    map[*Packet]int // payload capacity at last sight, per packet ever seen
	gets     uint64
	releases uint64
	shared   []*Packet // references parked for another goroutine to pick up
	err      error
}

func (r *refPool) failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// borrowed records p as handed out by Get/Clone and checks what the pool
// promises about a packet it hands out. want is the template of a Clone, nil
// for a Get.
func (r *refPool) borrowed(p *Packet, want *Packet) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gets++
	if n := r.refs[p]; n != 0 {
		r.failf("packet %p handed out while %d references are outstanding", p, n)
	}
	r.refs[p] = 1
	if !p.Pooled() {
		r.failf("packet %p is not pooled", p)
	}
	if c, seen := r.capOf[p]; seen && cap(p.Payload) < c {
		r.failf("recycled packet %p lost payload capacity: %d < %d", p, cap(p.Payload), c)
	}
	got := *p
	got.Payload, got.pool, got.refs = nil, nil, 0
	if want == nil {
		if !reflect.DeepEqual(got, Packet{}) || len(p.Payload) != 0 {
			r.failf("Get returned a packet that was not reset: %+v payload=%d", got, len(p.Payload))
		}
		return
	}
	exp := *want
	exp.Payload, exp.pool, exp.refs = nil, nil, 0
	if !reflect.DeepEqual(got, exp) || !bytes.Equal(p.Payload, want.Payload) {
		r.failf("Clone differs from its source: %+v vs %+v", got, exp)
	}
}

// runPoolSequence drives one seeded sequence of Get/Clone/Retain/Release —
// and hand-overs between goroutines, so packets are released on a goroutine
// other than the one that borrowed them — from `workers` goroutines, checks
// the pool against the reference after it, and returns the pool's Stats at
// that point (references still held) and after everything was released.
func runPoolSequence(seed int64, workers, steps int, accounting bool) (held, drained PoolStats, err error) {
	pl := NewPool(PoolOptions{Accounting: accounting})
	ref := &refPool{refs: map[*Packet]int{}, capOf: map[*Packet]int{}}
	tmpl := poolPacket()
	mine := make([][]*Packet, workers) // references each goroutine holds
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*8 + int64(w)))
			hold := func(p *Packet) { mine[w] = append(mine[w], p) }
			// dirty scribbles over a packet this goroutine alone holds, and
			// grows some payloads past the pool's preallocated capacity.
			var r int // this step's random draw; one per step, whatever the op
			dirty := func(p *Packet) {
				p.Seq, p.TTL, p.Timestamp = uint32(r)|1, 9, 77
				p.SrcIP = tmpl.SrcIP
				p.Payload = append(p.Payload[:0], make([]byte, 1+r%600)...)
				ref.mu.Lock()
				ref.capOf[p] = cap(p.Payload)
				ref.mu.Unlock()
			}
			pick := func() (int, *Packet) {
				i := r % len(mine[w])
				return i, mine[w][i]
			}
			drop := func(i int) {
				last := len(mine[w]) - 1
				mine[w][i] = mine[w][last]
				mine[w] = mine[w][:last]
			}
			for s := 0; s < steps; s++ {
				// Both draws are made every step, so which ops a goroutine
				// runs — and so the total of Gets — does not depend on how
				// the goroutines interleave.
				op := rng.Intn(100)
				r = rng.Intn(1 << 20)
				switch {
				case op < 25:
					p := pl.Get()
					ref.borrowed(p, nil)
					dirty(p)
					hold(p)
				case op < 40:
					p := pl.Clone(tmpl)
					ref.borrowed(p, tmpl)
					dirty(p)
					hold(p)
				case len(mine[w]) == 0:
				case op < 50:
					_, p := pick()
					ref.mu.Lock()
					ref.refs[p]++
					ref.mu.Unlock()
					p.Retain()
					hold(p)
				case op < 85:
					i, p := pick()
					drop(i)
					ref.mu.Lock()
					if ref.refs[p]--; ref.refs[p] == 0 {
						ref.releases++
					}
					ref.mu.Unlock()
					p.Release()
				case op < 93: // park a reference for another goroutine
					i, p := pick()
					drop(i)
					ref.mu.Lock()
					ref.shared = append(ref.shared, p)
					ref.mu.Unlock()
				default: // pick one up
					ref.mu.Lock()
					if n := len(ref.shared); n > 0 {
						hold(ref.shared[n-1])
						ref.shared = ref.shared[:n-1]
					}
					ref.mu.Unlock()
				}
			}
		}(w)
	}
	wg.Wait()
	if ref.err != nil {
		return held, drained, ref.err
	}
	check := func(when string) (PoolStats, error) {
		st := pl.Stats()
		var outstanding int64
		for _, n := range ref.refs {
			if n > 0 {
				outstanding++
			}
		}
		news := uint64(len(ref.refs)) // every packet ever handed out
		switch {
		case st.Gets != ref.gets, st.Releases != ref.releases, st.Outstanding != outstanding, st.News != news:
			return st, fmt.Errorf("%s: stats %+v, reference gets=%d releases=%d outstanding=%d news=%d", when, st, ref.gets, ref.releases, outstanding, news)
		case int64(st.FreeLen) != int64(st.News)-st.Outstanding:
			return st, fmt.Errorf("%s: FreeLen %d != News %d - Outstanding %d", when, st.FreeLen, st.News, st.Outstanding)
		case pl.Outstanding() != outstanding:
			return st, fmt.Errorf("%s: Outstanding() %d, reference %d", when, pl.Outstanding(), outstanding)
		}
		return st, nil
	}
	if held, err = check("references held"); err != nil {
		return held, drained, err
	}
	if held.Outstanding > 0 && pl.CheckLeaks() == nil {
		return held, drained, fmt.Errorf("CheckLeaks missed %d borrowed packets", held.Outstanding)
	}
	for _, ps := range append(mine, ref.shared) {
		for _, p := range ps {
			if ref.refs[p]--; ref.refs[p] == 0 {
				ref.releases++
			}
			p.Release()
		}
	}
	if drained, err = check("drained"); err != nil {
		return held, drained, err
	}
	return held, drained, pl.CheckLeaks()
}

// TestPoolMatchesRefcountReference runs seeded operation sequences from one
// to four goroutines against the reference model, in fast and in accounting
// mode: exact Stats, no packet handed out twice, recycled packets reset with
// their payload capacity kept, and the two modes in agreement — on every
// counter for a single goroutine (the sequence is then deterministic), on the
// totals otherwise (how many packets a concurrent run allocates depends on
// its interleaving).
func TestPoolMatchesRefcountReference(t *testing.T) {
	const sequences, steps = 1200, 80
	for seed := int64(1); seed <= sequences; seed++ {
		workers := 1 + int(seed%4)
		fastHeld, fast, err := runPoolSequence(seed, workers, steps, false)
		if err != nil {
			t.Fatalf("seed %d (%d goroutines, fast): %v", seed, workers, err)
		}
		accHeld, acc, err := runPoolSequence(seed, workers, steps, true)
		if err != nil {
			t.Fatalf("seed %d (%d goroutines, accounting): %v", seed, workers, err)
		}
		if workers == 1 && (fastHeld != accHeld || fast != acc) {
			t.Fatalf("seed %d: modes disagree: fast %+v then %+v, accounting %+v then %+v", seed, fastHeld, fast, accHeld, acc)
		}
		if fast.Gets != acc.Gets || fast.Releases != acc.Releases || fast.Outstanding != 0 || acc.Outstanding != 0 {
			t.Fatalf("seed %d: modes disagree after drain: fast %+v, accounting %+v", seed, fast, acc)
		}
	}
}

// handoffBurst and handoffInFlight shape the producer/consumer runs like the
// chain: bursts of 64 with at most 2048 packets borrowed.
const (
	handoffBurst    = 64
	handoffInFlight = 2048
)

// poolHandoff borrows n packets on the calling goroutine and releases them
// on another, never holding more than handoffInFlight borrowed.
func poolHandoff(pl *Pool, n int) {
	// Sized so that the producer never blocks on the channel before it
	// blocks on the in-flight bound.
	bursts := make(chan []*Packet, handoffInFlight/handoffBurst)
	spare := make(chan []*Packet, cap(bursts)+2)
	for i := 0; i < cap(spare); i++ {
		spare <- make([]*Packet, 0, handoffBurst)
	}
	var released atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for ps := range bursts {
			for _, p := range ps {
				p.Release()
			}
			released.Add(int64(len(ps)))
			spare <- ps[:0]
		}
	}()
	for got := 0; got < n; {
		for int64(got)-released.Load() > handoffInFlight-handoffBurst {
			runtime.Gosched()
		}
		ps := <-spare
		for len(ps) < handoffBurst && got < n {
			ps = append(ps, pl.Get())
			got++
		}
		bursts <- ps
	}
	close(bursts)
	<-done
}

// TestPoolHandoffAllocatesNothingWhileFree is the two-sided pool's own
// property: with Get on one goroutine and Release on another, a packet
// released on the far side comes back to the near side, so a million borrows
// with at most 2048 outstanding allocate at most 2048 packets plus the burst
// being filled. (Without the list swap in Get every borrow allocates.)
func TestPoolHandoffAllocatesNothingWhileFree(t *testing.T) {
	pl := NewPool(PoolOptions{})
	const n = 1_000_000
	poolHandoff(pl, n)
	st := pl.Stats()
	if st.News > handoffInFlight+handoffBurst {
		t.Errorf("pool allocated %d packets for %d in flight", st.News, handoffInFlight)
	}
	if st.Gets != n || st.Releases != n || st.Outstanding != 0 || st.FreeLen != int(st.News) {
		t.Errorf("stats after hand-off: %+v", st)
	}
}

// BenchmarkPoolHandoff is the pool's cross-core cost per packet: borrowed on
// one goroutine, released on another, as between the chain's source and its
// last hop.
func BenchmarkPoolHandoff(b *testing.B) {
	pl := NewPool(PoolOptions{})
	poolHandoff(pl, 2*handoffInFlight)
	b.ReportAllocs()
	b.ResetTimer()
	poolHandoff(pl, b.N)
}
