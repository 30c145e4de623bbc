package core

// White-box tests for the sharded transaction router and each transaction's
// completion timer: shard selection (power-of-two rounding, FlowID.Hash
// symmetry), orphan adoption when events beat their registering chunk,
// ownership guards when transactions overlap on a key, detach cleanup, and
// quiescence-driven completion (armQuiet: first check at lastEvent +
// QuietPeriod, re-armed while events keep arriving, flushed at Close). End-to-end behaviour (moves under traffic, shards=1 vs
// shards=N equivalence) is covered in core_test and fastpath_test.

import (
	"fmt"
	"math/rand"
	"net"
	"net/netip"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"openmb/internal/packet"
	"openmb/internal/sbi"
)

// testPeer is one side of an in-process southbound connection: the mbConn
// the router forwards through, plus a reader draining the middlebox side
// (net.Pipe is synchronous, so forwards block until read).
type testPeer struct {
	mb   *mbConn
	recv chan *sbi.Message
}

func newTestPeer(t *testing.T, c *Controller, name string) *testPeer {
	p, release := newHeldTestPeer(t, c, name)
	release()
	return p
}

// newHeldTestPeer returns a peer whose reader does not start until release
// is called — sends toward it block (net.Pipe is synchronous), which lets
// tests freeze an ordered drain mid-forward.
func newHeldTestPeer(t *testing.T, c *Controller, name string) (*testPeer, func()) {
	t.Helper()
	ctrlSide, mbSide := net.Pipe()
	p := &testPeer{
		mb:   newMBConn(name, "", sbi.NewConn(ctrlSide), c),
		recv: make(chan *sbi.Message, 256),
	}
	peer := sbi.NewConn(mbSide)
	hold := make(chan struct{})
	var once sync.Once
	go func() {
		<-hold
		for {
			m, err := peer.Receive()
			if err != nil {
				close(p.recv)
				return
			}
			p.recv <- m
		}
	}()
	release := func() { once.Do(func() { close(hold) }) }
	t.Cleanup(func() { release(); p.mb.conn.Close(); peer.Close() })
	return p, release
}

func (p *testPeer) expectReprocess(t *testing.T, key packet.FlowKey) {
	t.Helper()
	select {
	case m := <-p.recv:
		if m.Op != sbi.OpReprocess || m.Event == nil || m.Event.Key != key {
			t.Fatalf("forwarded frame: %+v", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("no reprocess forwarded for %v", key)
	}
}

func (p *testPeer) expectNothing(t *testing.T) {
	t.Helper()
	select {
	case m := <-p.recv:
		t.Fatalf("unexpected forward: %+v", m)
	case <-time.After(20 * time.Millisecond):
	}
}

func key(i int) packet.FlowKey {
	return packet.FlowKey{
		SrcIP: ipv4(10, 0, byte(i>>8), byte(i)), DstIP: ipv4(192, 168, 1, 1),
		Proto: packet.ProtoTCP, SrcPort: uint16(1000 + i), DstPort: 80,
	}
}

// frame is one chunk frame's key slice, as IDs (registerFrame keeps it).
func frame(keys ...packet.FlowKey) []packet.FlowID {
	ids := make([]packet.FlowID, len(keys))
	for i, k := range keys {
		ids[i], _ = k.ID()
	}
	return ids
}

func reprocessEvent(k packet.FlowKey) *sbi.Event {
	return &sbi.Event{Kind: sbi.EventReprocess, Key: k}
}

func TestShardDefaultsAndRounding(t *testing.T) {
	for _, tc := range []struct{ in, want int }{
		{1, 1}, {2, 2}, {3, 4}, {5, 8}, {8, 8}, {100, 128}, {maxShards + 1, maxShards},
	} {
		o := Options{Shards: tc.in}
		o.setDefaults()
		if o.Shards != tc.want {
			t.Errorf("Shards %d resolved to %d, want %d", tc.in, o.Shards, tc.want)
		}
	}
	for _, in := range []int{0, -4} {
		auto := Options{Shards: in}
		auto.setDefaults()
		if auto.Shards < 2 || auto.Shards&(auto.Shards-1) != 0 {
			t.Errorf("Shards %d resolved to %d, want the auto default (power of two >= 2)", in, auto.Shards)
		}
	}
}

// TestShardSymmetry: FlowID.Hash is symmetric, so both directions of a flow
// must resolve to the same shard — the property the per-shard ordering
// argument relies on.
func TestShardSymmetry(t *testing.T) {
	r := newTxnRouter(16)
	spread := map[*routerShard]bool{}
	for i := 0; i < 64; i++ {
		k := frame(key(i))[0]
		if r.shard(k) != r.shard(k.Reverse()) {
			t.Fatalf("key %v and its reverse land in different shards", k)
		}
		spread[r.shard(k)] = true
	}
	if len(spread) < 12 {
		t.Fatalf("64 distinct flows hit only %d/16 shards", len(spread))
	}
}

// TestOrphanAdoptionAcrossShards: events that beat their registering chunk
// are held per shard and adopted at registration, then released only when
// the key's put is acknowledged.
func TestOrphanAdoptionAcrossShards(t *testing.T) {
	c := NewController(Options{Shards: 8, QuietPeriod: 50 * time.Millisecond})
	src := newTestPeer(t, c, "src")
	dst := newTestPeer(t, c, "dst")
	tx := newTxn(c, src.mb, dst.mb)

	// Enough keys to span several shards.
	keys := make([]packet.FlowKey, 32)
	for i := range keys {
		keys[i] = key(i)
	}
	for _, k := range keys {
		c.router.route(src.mb, reprocessEvent(k)) // beats its chunk: orphaned
	}
	dst.expectNothing(t)
	tx.registerFrame(frame(keys...)) // one frame spanning the shards adopts every orphan
	dst.expectNothing(t)             // still buffered: put outstanding
	for _, k := range keys {
		tx.ackFrame(frame(k))
		dst.expectReprocess(t, k)
	}
	if got := c.Metrics().EventsBuffered; got != uint64(len(keys)) {
		t.Fatalf("EventsBuffered = %d, want %d", got, len(keys))
	}
	tx.detach()
}

// TestOrphansAreBounded: stragglers for a never-registered key stop
// accumulating at maxOrphansPerKey, and a shared event with no owner is
// never held at all: a later clone adopting it would replay a packet its own
// snapshot holds.
func TestOrphansAreBounded(t *testing.T) {
	for _, tc := range []struct {
		name   string
		shared bool
		want   int
	}{
		{"per-flow", false, maxOrphansPerKey},
		{"shared", true, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := NewController(Options{Shards: 2})
			src := newTestPeer(t, c, "src")
			for i := 0; i < maxOrphansPerKey+100; i++ {
				c.router.route(src.mb, &sbi.Event{Kind: sbi.EventReprocess, Key: key(7), Shared: tc.shared})
			}
			n := 0
			for i := range c.router.shards {
				sh := &c.router.shards[i]
				sh.mu.Lock()
				for _, evs := range sh.orphans {
					n += len(evs)
				}
				sh.mu.Unlock()
			}
			if n != tc.want {
				t.Fatalf("orphans held = %d, want %d", n, tc.want)
			}
		})
	}
}

// TestSharedEventsBufferUntilPutAck: shared events, whatever flow raised
// them, route under packet.SharedID. While the shared put is outstanding
// they are buffered; its ACK forwards them in Seq order, and later ones go
// straight through.
func TestSharedEventsBufferUntilPutAck(t *testing.T) {
	c := NewController(Options{Shards: 4})
	src := newTestPeer(t, c, "src")
	dst := newTestPeer(t, c, "dst")
	tx := newTxn(c, src.mb, dst.mb)
	shared := []packet.FlowID{packet.SharedID}
	ev := func(seq uint64) {
		c.router.route(src.mb, &sbi.Event{Kind: sbi.EventReprocess, Key: key(int(seq)), Shared: true, Seq: seq})
	}
	expect := func(seq uint64) {
		t.Helper()
		select {
		case m := <-dst.recv:
			if m.Event == nil || !m.Event.Shared || m.Event.Seq != seq {
				t.Fatalf("dst received %+v, want shared seq %d", m, seq)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("dst missing shared seq %d", seq)
		}
	}
	tx.registerFrame(shared)
	for seq := uint64(1); seq <= 8; seq++ {
		ev(seq)
	}
	dst.expectNothing(t)
	tx.ackFrame(shared)
	for seq := uint64(1); seq <= 8; seq++ {
		expect(seq)
	}
	ev(9)
	expect(9)
	if m := c.Metrics(); m.EventsBuffered != 8 || m.EventsForwarded != 9 {
		t.Fatalf("EventsBuffered = %d, EventsForwarded = %d; want 8 and 9", m.EventsBuffered, m.EventsForwarded)
	}
	tx.detach()
	ev(10) // no owner once detached: dropped
	dst.expectNothing(t)
}

// TestOverlappingTxnOwnership: when a newer transaction claims a key an
// older one registered, the old transaction keeps its outstanding put count
// and buffer as stale state — its own ACK (not the new owner's) releases
// its events toward its own destination, and it must never release the new
// owner's buffer early.
func TestOverlappingTxnOwnership(t *testing.T) {
	c := NewController(Options{Shards: 4})
	src := newTestPeer(t, c, "src")
	dst1 := newTestPeer(t, c, "dst1")
	dst2 := newTestPeer(t, c, "dst2")
	k := key(3)

	t1 := newTxn(c, src.mb, dst1.mb)
	t1.registerFrame(frame(k))
	c.router.route(src.mb, reprocessEvent(k)) // buffered against t1's put

	t2 := newTxn(c, src.mb, dst2.mb)
	t2.registerFrame(frame(k)) // takes over routing; t1's buffer goes stale
	dst1.expectNothing(t)

	c.router.route(src.mb, reprocessEvent(k)) // buffered against t2's put
	t1.ackFrame(frame(k))                     // releases t1's stale buffer, not t2's
	dst1.expectReprocess(t, k)
	dst2.expectNothing(t)
	t2.ackFrame(frame(k))
	dst2.expectReprocess(t, k)
	t1.detach()
	t2.detach()
}

// TestEvictionDuringDrain: a new transaction claiming a key while the old
// owner's ordered drain is blocked mid-forward must not forward concurrently
// with the drain — the drain delivers the remainder in order, and later
// events belong to the new owner only.
func TestEvictionDuringDrain(t *testing.T) {
	c := NewController(Options{Shards: 4})
	src := newTestPeer(t, c, "src")
	dst1, release1 := newHeldTestPeer(t, c, "dst1")
	dst2 := newTestPeer(t, c, "dst2")
	k := key(5)

	t1 := newTxn(c, src.mb, dst1.mb)
	t1.registerFrame(frame(k))
	ev := func(seq uint64) *sbi.Event {
		return &sbi.Event{Kind: sbi.EventReprocess, Key: k, Seq: seq}
	}
	c.router.route(src.mb, ev(1))
	c.router.route(src.mb, ev(2))

	// The ACK starts the drain, which blocks sending toward the held
	// dst1. Run it on its own goroutine and wait until the drain has
	// marked the key as flushing (set under the shard lock before the
	// first forward), so the next event deterministically lands mid-drain.
	drainDone := make(chan struct{})
	go func() { t1.ackFrame(frame(k)); close(drainDone) }()
	sh := c.router.shard(frame(k)[0])
	rk := routeKey{mb: src.mb, key: frame(k)[0]}
	for deadline := time.Now().Add(5 * time.Second); ; {
		sh.mu.Lock()
		flushing := sh.keys[rk] != nil && sh.keys[rk].flushing
		sh.mu.Unlock()
		if flushing {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("drain never started")
		}
		time.Sleep(time.Millisecond)
	}
	c.router.route(src.mb, ev(3)) // arrives mid-drain: must queue behind 1,2

	t2 := newTxn(c, src.mb, dst2.mb)
	t2.registerFrame(frame(k)) // eviction while t1's drain is frozen
	c.router.route(src.mb, ev(4))

	release1()
	<-drainDone
	for want := uint64(1); want <= 3; want++ {
		select {
		case m := <-dst1.recv:
			if m.Event == nil || m.Event.Seq != want {
				t.Fatalf("dst1 received %+v, want seq %d", m, want)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("dst1 missing event seq %d", want)
		}
	}
	dst2.expectNothing(t) // seq 4 buffered against t2's put
	t2.ackFrame(frame(k))
	select {
	case m := <-dst2.recv:
		if m.Event == nil || m.Event.Seq != 4 {
			t.Fatalf("dst2 received %+v, want seq 4", m)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("dst2 missing event seq 4")
	}
	dst1.expectNothing(t)
	t1.detach()
	t2.detach()
}

// TestDetachPurges: detach removes only the transaction's own entries, and
// the last detach on a source discards its orphans.
func TestDetachPurges(t *testing.T) {
	c := NewController(Options{Shards: 4})
	src := newTestPeer(t, c, "src")
	dst := newTestPeer(t, c, "dst")
	tx := newTxn(c, src.mb, dst.mb)
	for i := 0; i < 16; i++ {
		tx.registerFrame(frame(key(i)))
	}
	c.router.route(src.mb, reprocessEvent(key(99))) // unregistered: orphaned
	tx.detach()
	tx.detach() // idempotent
	for i := range c.router.shards {
		sh := &c.router.shards[i]
		sh.mu.Lock()
		nk, no := len(sh.keys), len(sh.orphans)
		sh.mu.Unlock()
		if nk != 0 || no != 0 {
			t.Fatalf("shard %d not purged: keys=%d orphans=%d", i, nk, no)
		}
	}
}

// TestCompleterWaitsForQuiescence: a completion fires only after the full
// quiet period, and source activity observed meanwhile pushes it out.
func TestCompleterWaitsForQuiescence(t *testing.T) {
	const quiet = 80 * time.Millisecond
	c := NewController(Options{Shards: 2, QuietPeriod: quiet})
	src := newTestPeer(t, c, "src")
	dst := newTestPeer(t, c, "dst")
	tx := newTxn(c, src.mb, dst.mb)

	start := time.Now()
	done := make(chan time.Duration, 1)
	tx.armQuiet(func() {
		done <- time.Since(start)
		tx.detach()
	})
	time.Sleep(quiet / 2)
	tx.touch() // activity: completion must restart its quiet window
	touched := time.Since(start)
	select {
	case elapsed := <-done:
		if elapsed < touched+quiet-5*time.Millisecond {
			t.Fatalf("completed %v after start despite activity at %v (quiet %v)", elapsed, touched, quiet)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("completion never fired")
	}
	if !c.WaitTxns(2 * time.Second) {
		t.Fatal("WaitTxns did not observe the completion")
	}
}

// TestQuiescentTxnFinishesAtOnce: the first check is due at lastEvent +
// QuietPeriod, not a full period after the data phase, so a transaction
// whose source has been quiet for longer than the period finishes at once.
func TestQuiescentTxnFinishesAtOnce(t *testing.T) {
	const quiet = time.Second
	c := NewController(Options{Shards: 2, QuietPeriod: quiet})
	src := newTestPeer(t, c, "src")
	dst := newTestPeer(t, c, "dst")
	tx := newTxn(c, src.mb, dst.mb)
	tx.lastEvent.Store(time.Now().Add(-2 * quiet).UnixNano())

	start := time.Now()
	done := make(chan time.Duration, 1)
	tx.armQuiet(func() {
		done <- time.Since(start)
		tx.detach()
	})
	select {
	case elapsed := <-done:
		if elapsed >= 250*time.Millisecond {
			t.Fatalf("a transaction quiet for 2 periods finished %v after arming, want < 250ms", elapsed)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("completion never fired")
	}
}

// TestCompleterCloseFlushes: closing the controller dispatches armed
// completions immediately instead of leaking them, and a transaction still
// in its data phase at Close finishes as soon as it arms.
func TestCompleterCloseFlushes(t *testing.T) {
	c := NewController(Options{Shards: 2, QuietPeriod: time.Hour})
	src := newTestPeer(t, c, "src")
	dst := newTestPeer(t, c, "dst")
	armed, late := newTxn(c, src.mb, dst.mb), newTxn(c, src.mb, dst.mb)
	done := make(chan struct{}, 2)
	finish := func(tx *txn) func() { return func() { done <- struct{}{}; tx.detach() } }
	armed.armQuiet(finish(armed))
	c.Close()
	late.armQuiet(finish(late))
	for range 2 {
		select {
		case <-done:
		case <-time.After(2 * time.Second):
			t.Fatal("pending completion not dispatched at Close")
		}
	}
	if !c.WaitTxns(2 * time.Second) {
		t.Fatalf("%d transactions live after Close flushed them", c.LiveTxns())
	}
}

func ipv4(a, b, c, d byte) netip.Addr { return netip.AddrFrom4([4]byte{a, b, c, d}) }

// routerOutcome is everything the frame-granular entry points must leave
// exactly as per-key calls would: the events each destination received, per
// key in arrival order; the puts still outstanding per key; the counters.
type routerOutcome struct {
	received  map[string][]uint64 // "dst/key" -> event seqs in arrival order
	pending   map[packet.FlowKey]int
	buffered  uint64
	forwarded uint64
}

// collectOutcome drains what the destinations received (every forwarded
// event is one frame here: the test peers announce no event batching) and
// snapshots the router.
func collectOutcome(t *testing.T, c *Controller, dsts ...*testPeer) routerOutcome {
	t.Helper()
	o := routerOutcome{received: map[string][]uint64{}, pending: map[packet.FlowKey]int{}}
	m := c.Metrics()
	o.buffered, o.forwarded = m.EventsBuffered, m.EventsForwarded
	// The counter covers every forward ever made, so receiving exactly
	// that many frames is also the check that nothing extra was sent.
	deadline := time.Now().Add(5 * time.Second)
	for got := uint64(0); got < o.forwarded; {
		idle := true
		for _, d := range dsts {
			select {
			case f := <-d.recv:
				if f.Event == nil {
					t.Fatalf("forwarded frame without event: %+v", f)
				}
				id := d.mb.name + "/" + f.Event.Key.String()
				o.received[id] = append(o.received[id], f.Event.Seq)
				got++
				idle = false
			default:
			}
		}
		if idle {
			if time.Now().After(deadline) {
				t.Fatalf("received %d of %d forwarded events", got, o.forwarded)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	for i := range c.router.shards {
		sh := &c.router.shards[i]
		sh.mu.Lock()
		for rk, ks := range sh.keys {
			o.pending[rk.key.Key()] = ks.pending
		}
		sh.mu.Unlock()
	}
	return o
}

// frameCalls registers and ACKs whole frames, or — the reference — the same
// frames one key at a time.
type frameCalls struct{ perKey bool }

func (f frameCalls) register(tx *txn, keys []packet.FlowID) {
	if !f.perKey {
		tx.registerFrame(slices.Clone(keys))
		return
	}
	for _, k := range keys {
		tx.registerFrame([]packet.FlowID{k})
	}
}

func (f frameCalls) ack(tx *txn, keys []packet.FlowID) {
	if !f.perKey {
		tx.ackFrame(keys)
		return
	}
	for _, k := range keys {
		tx.ackFrame([]packet.FlowID{k})
	}
}

// seededFrameScript interleaves, from one seed, events (orphans when they
// beat their chunk), frame registrations and frame ACKs of two transactions
// that overlap on the same eight keys of one source, and leaves some puts
// outstanding.
func seededFrameScript(t *testing.T, seed int64, calls frameCalls) routerOutcome {
	c := NewController(Options{Shards: 4})
	src := newTestPeer(t, c, "src")
	dsts := []*testPeer{newTestPeer(t, c, "dst0"), newTestPeer(t, c, "dst1")}
	txns := []*txn{newTxn(c, src.mb, dsts[0].mb), newTxn(c, src.mb, dsts[1].mb)}
	rng := rand.New(rand.NewSource(seed))
	var unacked [2][][]packet.FlowID
	var seq uint64
	for step := 0; step < 150; step++ {
		x := rng.Intn(2)
		switch op := rng.Intn(10); {
		case op < 4:
			seq++
			c.router.route(src.mb, &sbi.Event{Kind: sbi.EventReprocess, Key: key(rng.Intn(8)), Seq: seq})
		case op < 7:
			keys := make([]packet.FlowID, 1+rng.Intn(6))
			for i := range keys {
				keys[i] = frame(key(rng.Intn(8)))[0]
			}
			calls.register(txns[x], keys)
			unacked[x] = append(unacked[x], keys)
		case len(unacked[x]) > 0:
			calls.ack(txns[x], unacked[x][0])
			unacked[x] = unacked[x][1:]
		}
	}
	return collectOutcome(t, c, dsts...)
}

// midDrainScript: both state classes register one frame's keys (two puts
// outstanding per key), the second ACK starts an ordered drain that blocks
// on a held destination, and while it is blocked the key is registered again
// and that put's ACK lands mid-drain.
func midDrainScript(t *testing.T, calls frameCalls) routerOutcome {
	c := NewController(Options{Shards: 4})
	src := newTestPeer(t, c, "src")
	dst, release := newHeldTestPeer(t, c, "dst")
	tx := newTxn(c, src.mb, dst.mb)
	keys := frame(key(1), key(2), key(3))
	ev := func(k packet.FlowKey, seq uint64) {
		c.router.route(src.mb, &sbi.Event{Kind: sbi.EventReprocess, Key: k, Seq: seq})
	}
	calls.register(tx, keys)
	calls.register(tx, keys)
	ev(key(1), 1)
	ev(key(1), 2)
	ev(key(2), 3)
	calls.ack(tx, keys) // one put left per key: nothing is due yet

	drained := make(chan struct{})
	go func() { calls.ack(tx, keys); close(drained) }()
	sh, rk := c.router.shard(keys[0]), routeKey{mb: src.mb, key: keys[0]}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		sh.mu.Lock()
		flushing := sh.keys[rk].flushing
		sh.mu.Unlock()
		if flushing {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("drain never started")
		}
	}
	ev(key(1), 4) // mid-drain: queues behind 1 and 2
	calls.register(tx, frame(key(1)))
	calls.ack(tx, frame(key(1))) // lands mid-drain: must not start a second drain
	release()
	<-drained
	return collectOutcome(t, c, dst)
}

// TestFrameCallsMatchPerKeyCalls: registerFrame and ackFrame are N per-key
// calls — same forwarded-event order per key and destination, same
// outstanding puts, same EventsBuffered and EventsForwarded — over seeded
// interleavings with overlapping transactions and orphans, and with an ACK
// landing mid-drain.
func TestFrameCallsMatchPerKeyCalls(t *testing.T) {
	check := func(name string, run func(calls frameCalls) routerOutcome) {
		got, want := run(frameCalls{}), run(frameCalls{perKey: true})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: frame calls diverge from per-key calls:\nframe   %+v\nper-key %+v", name, got, want)
		}
		if want.forwarded == 0 || want.buffered == 0 {
			t.Fatalf("%s: script forwarded %d and buffered %d events; it exercises nothing", name, want.forwarded, want.buffered)
		}
	}
	for seed := int64(1); seed <= 25; seed++ {
		check(fmt.Sprintf("seed %d", seed), func(calls frameCalls) routerOutcome { return seededFrameScript(t, seed, calls) })
	}
	check("mid-drain", func(calls frameCalls) routerOutcome { return midDrainScript(t, calls) })
	want := map[string][]uint64{"dst/" + key(1).String(): {1, 2, 4}, "dst/" + key(2).String(): {3}}
	if got := midDrainScript(t, frameCalls{}).received; !reflect.DeepEqual(got, want) {
		t.Fatalf("mid-drain delivery %v, want %v", got, want)
	}
}
