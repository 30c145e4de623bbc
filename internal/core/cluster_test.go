package core

// Cluster tests: the in-process node rig, cross-node northbound operations,
// and the registration-storm test for the keyed waiter registry. CI runs
// this file under -race.

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"openmb/internal/mbox"
	"openmb/internal/mbox/mbtest"
	"openmb/internal/packet"
	"openmb/internal/sbi"
)

// gateLogic wraps a CounterLogic so its per-flow supporting get signals the
// test after a few chunks and then blocks until released — pinning a move
// mid-stream so a failure deterministically lands while the router holds
// registered keys, pending puts, and buffered events.
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

// Lock is the gate. The runtime takes the table's lock through the logic
// once for each get to collect its keys, then before each key the get
// exports (and once for a delete). A move runs its two gets, one per class,
// at once, so the gate holds every Lock from the (after+2)-th on until
// released, before the lock is held: the supporting get stops before its
// after-th key, or the next one if the reporting get collected late (and
// that collection stops too).
func (g *gateLogic) Lock() {
	g.mu.Lock()
	g.seen++
	hit := g.seen >= g.after+2
	g.mu.Unlock()
	if hit {
		g.once.Do(func() { close(g.reached) })
		<-g.release
	}
	g.CounterLogic.Lock()
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
		t.Fatalf("move never reached the gate within %v: source took its table's lock %d of the %d times that pin it; source holds %d flows, %d marked keys, processed %d packets, raised %d events",
			gateDeadline, seen, g.after+2, g.Flows(), src.MarkedKeys(), m.Processed, m.EventsRaised)
	}
}

// assertRoutersQuiescent verifies no routing state survived the workload:
// every buffer drained, every detach purged.
func assertRoutersQuiescent(t *testing.T, c *Controller) {
	t.Helper()
	for _, r := range connRouters(c) {
		if nk, no := routerCounts(r); nk != 0 || no != 0 {
			t.Fatalf("router not quiescent: %d keys owned, %d orphaned events", nk, no)
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
