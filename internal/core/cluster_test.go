package core

// Cluster tests: the in-process node rig, cross-node northbound operations,
// the ownership-transfer codec round trip and aborted-remote import, and the
// registration-storm test for the keyed waiter registry. CI runs this file
// under -race.

import (
	"fmt"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"openmb/internal/mbox"
	"openmb/internal/mbox/mbtest"
	"openmb/internal/packet"
	"openmb/internal/sbi"
	"openmb/internal/state"
)

// gateLogic wraps a CounterLogic so its per-flow supporting get signals the
// test after a few chunks and then blocks until released — pinning a move
// mid-stream so a forced handoff deterministically lands while the router
// holds registered keys, pending puts, and buffered events.
type gateLogic struct {
	*mbtest.CounterLogic
	after   int
	reached chan struct{}
	release chan struct{}
	once    sync.Once
	seen    int
	mu      sync.Mutex
}

func newGateLogic(after int) *gateLogic {
	return &gateLogic{
		CounterLogic: mbtest.NewCounterLogic(16),
		after:        after,
		reached:      make(chan struct{}),
		release:      make(chan struct{}),
	}
}

func (g *gateLogic) GetPerflow(class state.Class, m packet.FieldMatch, emit func(key packet.FlowKey, build func(mark func()) ([]byte, error)) error) error {
	return g.CounterLogic.GetPerflow(class, m, func(key packet.FlowKey, build func(mark func()) ([]byte, error)) error {
		g.mu.Lock()
		g.seen++
		hit := g.seen == g.after
		g.mu.Unlock()
		if hit {
			g.once.Do(func() { close(g.reached) })
			<-g.release
		}
		return emit(key, build)
	})
}

// gateDeadline bounds the wait for a move to reach its gate; far above the
// few milliseconds a healthy move needs, far below go test's own timeout.
const gateDeadline = 30 * time.Second

// awaitReached waits until the gated get is pinned mid-stream. A move that
// never starts (a spawned coordinator that lost its command, a registration
// that moved) fails the test here with how far it got, instead of blocking
// until go test's timeout kills the whole package. src is the runtime
// hosting the gate.
func (g *gateLogic) awaitReached(t *testing.T, src *mbox.Runtime) {
	t.Helper()
	select {
	case <-g.reached:
	case <-time.After(gateDeadline):
		// Unpin first: a get that arrives during cleanup must not block it.
		close(g.release)
		g.mu.Lock()
		seen := g.seen
		g.mu.Unlock()
		m := src.Metrics()
		t.Fatalf("move never reached the gate within %v: source get emitted %d of the %d chunks that pin it; source holds %d flows, %d marked keys, processed %d packets, raised %d events",
			gateDeadline, seen, g.after, g.Flows(), src.MarkedKeys(), m.Processed, m.EventsRaised)
	}
}

// assertRoutersQuiescent verifies no routing state survived the workload:
// every buffer drained, every detach purged.
func assertRoutersQuiescent(t *testing.T, c *Controller) {
	t.Helper()
	for si := range c.router.shards {
		sh := &c.router.shards[si]
		sh.mu.Lock()
		nk, no := len(sh.keys), len(sh.orphans)
		sh.mu.Unlock()
		if nk != 0 || no != 0 {
			t.Fatalf("shard %d not quiescent: keys=%d orphans=%d", si, nk, no)
		}
	}
}

// nodeRig is a cluster of in-process nodes over one transport, with
// middleboxes attached by name.
type nodeRig struct {
	t     *testing.T
	tr    sbi.Transport
	nodes map[string]*Node
	rts   map[string]*mbox.Runtime
}

// newNodeRig starts one node per name, listening on its own name, joins
// every later node to the first, and returns once the mesh is full.
func newNodeRig(t *testing.T, tr sbi.Transport, ctrl Options, names ...string) *nodeRig {
	t.Helper()
	r := &nodeRig{t: t, tr: tr, nodes: map[string]*Node{}, rts: map[string]*mbox.Runtime{}}
	for i, name := range names {
		n := NewNode(NodeOptions{Name: name, PeerCallTimeout: 400 * time.Millisecond, Cluster: ClusterOptions{Controller: ctrl}})
		if err := n.Serve(tr, name); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Close)
		if i > 0 {
			if err := n.Join(names[0]); err != nil {
				t.Fatal(err)
			}
		}
		r.nodes[name] = n
	}
	for _, n := range r.nodes {
		waitUntil(t, 10*time.Second, n.Name()+" full mesh", func() bool { return len(n.Peers()) == len(names)-1 })
	}
	return r
}

// attach connects a reconnecting runtime hosting logic to the nodes in
// addrs (comma-separated, in preference order) and waits for it to
// register at the first.
func (r *nodeRig) attach(name string, logic mbox.Logic, addrs string) *mbox.Runtime {
	r.t.Helper()
	rt := mbox.New(name, logic, mbox.Options{
		Reconnect:    true,
		ReconnectMin: 2 * time.Millisecond,
		ReconnectMax: 20 * time.Millisecond,
	})
	r.t.Cleanup(rt.Close)
	if err := rt.Connect(r.tr, addrs); err != nil {
		r.t.Fatal(err)
	}
	first, _, _ := strings.Cut(addrs, ",")
	if err := r.nodes[first].WaitForMB(name, 5*time.Second); err != nil {
		r.t.Fatal(err)
	}
	r.rts[name] = rt
	return rt
}

// drainAll drains every runtime until quiescent.
func (r *nodeRig) drainAll(t *testing.T) {
	t.Helper()
	for name, rt := range r.rts {
		if !rt.Drain(10 * time.Second) {
			t.Fatalf("%s did not drain", name)
		}
	}
}

// TestClusterCrossPartitionOps runs the northbound operations across a
// partition boundary, where the partitions are nodes: the pair starts on
// different nodes, the move pulls both endpoints to its coordinator, and
// every other operation then runs there.
func TestClusterCrossPartitionOps(t *testing.T) {
	r := newNodeRig(t, sbi.NewMemTransport(), Options{QuietPeriod: 60 * time.Millisecond}, "a", "b")
	a, b := r.nodes["a"], r.nodes["b"]
	src, dst := mbtest.NewCounterLogic(16), mbtest.NewCounterLogic(16)
	r.attach("src0", src, "a")
	r.attach("dst0", dst, "b")
	src.Preload(40)

	if err := a.WriteConfig("src0", "rules/0", []string{"alert"}); err != nil {
		t.Fatal(err)
	}
	if err := b.MoveInternal("src0", "dst0", packet.MatchAll); err != nil {
		t.Fatalf("cross-node move: %v", err)
	}
	if got := dst.Flows(); got != 40 {
		t.Fatalf("cross-node move delivered %d flows, want 40", got)
	}
	if !b.WaitTxns(10 * time.Second) {
		t.Fatal("cross-node move did not complete")
	}
	if got := src.Flows(); got != 0 {
		t.Fatalf("source not emptied: %d", got)
	}
	if got := a.Middleboxes(); len(got) != 0 {
		t.Fatalf("a still holds %v after b pulled both endpoints", got)
	}

	if err := b.CloneConfig("src0", "dst0"); err != nil {
		t.Fatal(err)
	}
	if !src.Config().Equal(dst.Config()) {
		t.Fatal("config clone diverged")
	}
	if s, err := b.Stats("dst0", packet.MatchAll); err != nil || s.SupportPerflowChunks != 40 {
		t.Fatalf("stats at the coordinator: %+v, %v", s, err)
	}
	r.rts["src0"].HandlePacket(mbtest.PacketForFlow(0))
	if !r.rts["src0"].Drain(5 * time.Second) {
		t.Fatal("src0 did not drain")
	}
	if err := b.MergeInternal("src0", "dst0"); err != nil {
		t.Fatalf("merge: %v", err)
	}
	if got := dst.SharedSupport(); got == 0 {
		t.Fatal("merge moved nothing")
	}
	if !b.WaitTxns(10 * time.Second) {
		t.Fatal("merge did not complete")
	}
}

// TestHandoffMessageCodecRoundTrip proves the ownership-transfer payload
// survives both SBI codecs byte-for-byte: a live export — registered keys,
// pending puts, buffered events, orphans — is framed, round-tripped through
// each codec over a real connection, imported from the DECODED payload, and
// must then drain identically to the original.
func TestHandoffMessageCodecRoundTrip(t *testing.T) {
	for _, codec := range []sbi.Codec{sbi.CodecJSON, sbi.CodecBinary} {
		t.Run(string(codec), func(t *testing.T) {
			c := NewController(Options{Shards: 4})
			src := newTestPeer(t, c, "src")
			dst := newTestPeer(t, c, "dst")
			tx := newTxn(c, src.mb, dst.mb)

			// Routing state of every flavor.
			tx.registerFrame(frame(key(1))) // pending put, one buffered event
			c.router.route(src.mb, &sbi.Event{Kind: sbi.EventReprocess, Key: key(1), Seq: 1, Packet: []byte{0xA}})
			tx.registerFrame(frame(key(2)))                                                                        // pending put, empty buffer
			c.router.route(src.mb, &sbi.Event{Kind: sbi.EventReprocess, Key: key(9), Seq: 2, Packet: []byte{0xB}}) // orphan

			h := c.router.exportHandoff(src.mb)
			if len(h.Keys) != 3 {
				t.Fatalf("export produced %d records, want 3: %+v", len(h.Keys), h)
			}
			// The payload must name its transactions by registry ID: that
			// is what lets an importing node tell live transactions from
			// ones that died with their coordinator.
			if len(h.Txns) != 1 || h.Txns[0] != tx.id {
				t.Fatalf("export carried txn IDs %v, want [%d]", h.Txns, tx.id)
			}

			// Round-trip the frame over a real connection pair.
			a, b := net.Pipe()
			left, right := sbi.NewConn(a), sbi.NewConn(b)
			defer left.Close()
			defer right.Close()
			if err := left.Upgrade(codec); err != nil {
				t.Fatal(err)
			}
			if err := right.Upgrade(codec); err != nil {
				t.Fatal(err)
			}
			sendErr := make(chan error, 1)
			go func() {
				sendErr <- left.Send(&sbi.Message{Type: sbi.MsgRequest, Op: sbi.OpTransferOwnership, Handoff: h})
			}()
			decoded, err := right.Receive()
			if err != nil {
				t.Fatal(err)
			}
			if err := <-sendErr; err != nil {
				t.Fatal(err)
			}
			if decoded.Op != sbi.OpTransferOwnership || !reflect.DeepEqual(decoded.Handoff, h) {
				t.Fatalf("%s round trip mutated the handoff:\n sent: %+v\n got:  %+v", codec, h, decoded.Handoff)
			}

			// Import the decoded payload into a second controller and drain:
			// the ACKs must release the transferred buffers in order. The
			// import resolves transactions from the decoded bytes through
			// the exporter's registry; the transaction and its source then
			// live at the importer.
			c2 := NewController(Options{Shards: 8}) // different shard count on purpose
			dropped, err := c2.router.importHandoff(src.mb, decoded.Handoff, c.registry)
			if err != nil {
				t.Fatal(err)
			}
			if dropped != 0 {
				t.Fatalf("import dropped %d keys of a fully resolvable payload", dropped)
			}
			src.mb.ctrl, tx.ctrl = c2, c2
			tx.ackFrame(frame(key(1)))
			dst.expectReprocess(t, key(1))
			tx.ackFrame(frame(key(2)))
			dst.expectNothing(t)
			// The orphan waits for its registering chunk, then its ACK.
			tx.registerFrame(frame(key(9)))
			tx.ackFrame(frame(key(9)))
			dst.expectReprocess(t, key(9))
			tx.detach()
			assertRouterEmpty(t, c2.router)
		})
	}
}

// TestImportHandoffAbortedRemote: a handoff whose txn IDs the importer's
// registry cannot resolve belongs to a coordinator that died with its
// process. The import must drop those keys as aborted-remote — buffered
// events discarded, conservation intact because live packets are always
// counted at the source — while still installing orphan records, and must
// never install a key with a dangling owner.
func TestImportHandoffAbortedRemote(t *testing.T) {
	c := NewController(Options{Shards: 4})
	src := newTestPeer(t, c, "src")
	dst := newTestPeer(t, c, "dst")
	tx := newTxn(c, src.mb, dst.mb)
	tx.registerFrame(frame(key(1)))
	c.router.route(src.mb, &sbi.Event{Kind: sbi.EventReprocess, Key: key(1), Seq: 1, Packet: []byte{0xA}})
	c.router.route(src.mb, &sbi.Event{Kind: sbi.EventReprocess, Key: key(9), Seq: 2, Packet: []byte{0xB}}) // orphan

	h := c.router.exportHandoff(src.mb)

	// A fresh controller models the recovering process: its registry has
	// never seen the exporter's transaction.
	c2 := NewController(Options{Shards: 2})
	dropped, err := c2.router.importHandoff(src.mb, h, c2.registry)
	if err != nil {
		t.Fatal(err)
	}
	if dropped != 1 {
		t.Fatalf("import dropped %d keys, want 1 (the dead coordinator's)", dropped)
	}
	keys, orphans := 0, 0
	for i := range c2.router.shards {
		sh := &c2.router.shards[i]
		sh.mu.Lock()
		keys += len(sh.keys)
		orphans += len(sh.orphans)
		sh.mu.Unlock()
	}
	if keys != 0 || orphans != 1 {
		t.Fatalf("after aborted-remote import: keys=%d orphans=%d, want 0/1", keys, orphans)
	}

	// A corrupt index past the table must still be rejected outright.
	bad := &sbi.Handoff{MB: "src", Keys: []sbi.HandoffKey{{Key: key(2), Txn: 7}}, Txns: []uint64{tx.id}}
	if _, err := c2.router.importHandoff(src.mb, bad, c2.registry); err == nil {
		t.Fatal("out-of-table txn index accepted")
	}
	tx.detach()
}

func assertRouterEmpty(t *testing.T, r *txnRouter) {
	t.Helper()
	for i := range r.shards {
		sh := &r.shards[i]
		sh.mu.Lock()
		nk, no := len(sh.keys), len(sh.orphans)
		sh.mu.Unlock()
		if nk != 0 || no != 0 {
			t.Fatalf("shard %d not empty: keys=%d orphans=%d", i, nk, no)
		}
	}
}

// TestRegistrationStorm hammers the keyed waiter registry: 32 goroutines
// connecting, waiting, and disconnecting concurrently, with extra waiters
// on every name. Under -race this catches waiter-registry races; the keyed
// layout also keeps a storm from waking every unrelated waiter.
func TestRegistrationStorm(t *testing.T) {
	const workers = 32
	c := NewController(Options{})
	tr := sbi.NewMemTransport()
	if err := c.Serve(tr, "ctrl"); err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			name := fmt.Sprintf("storm%d", w)
			for round := 0; round < 4; round++ {
				// A second goroutine races WaitForMB against the
				// registration itself.
				waitDone := make(chan error, 1)
				go func() { waitDone <- c.WaitForMB(name, 5*time.Second) }()
				rt := mbox.New(name, mbtest.NewCounterLogic(16), mbox.Options{})
				if err := rt.Connect(tr, "ctrl"); err != nil {
					t.Errorf("%s connect: %v", name, err)
					rt.Close()
					return
				}
				if err := c.WaitForMB(name, 5*time.Second); err != nil {
					t.Errorf("%s wait: %v", name, err)
				}
				if err := <-waitDone; err != nil {
					t.Errorf("%s racing wait: %v", name, err)
				}
				rt.Close()
				// Wait until the deregistration lands so the next
				// round's connect cannot be rejected as a duplicate.
				deadline := time.Now().Add(5 * time.Second)
				for {
					if _, err := c.mb(name); err != nil {
						break
					}
					if time.Now().After(deadline) {
						t.Errorf("%s never deregistered", name)
						return
					}
					time.Sleep(time.Millisecond)
				}
			}
		}(w)
	}
	// Waiters on names that never register must time out cleanly and not
	// leak registry entries.
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := c.WaitForMB(fmt.Sprintf("ghost%d", w), 30*time.Millisecond); err == nil {
				t.Error("ghost registration appeared")
			}
		}(w)
	}
	wg.Wait()
	c.waitMu.Lock()
	leaked := len(c.waiters)
	c.waitMu.Unlock()
	if leaked != 0 {
		t.Fatalf("%d waiter entries leaked", leaked)
	}
}
