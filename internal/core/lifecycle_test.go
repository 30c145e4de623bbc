package core

// Transaction lifecycle tests: the registry is the one record of a live
// transaction, from newTxn through the data phase to its quiet-period finish,
// so WaitTxns, Node.Shutdown and the router's table release all follow it.

import (
	"sync"
	"testing"
	"time"

	"openmb/internal/mbox"
	"openmb/internal/mbox/mbtest"
	"openmb/internal/packet"
	"openmb/internal/sbi"
	"openmb/internal/state"
)

// heldPutLogic is a counter middlebox whose first per-flow put (or, with
// shared set, its first shared put) signals entered and blocks until
// release, pinning a transaction in its data phase. The runtime installs a
// per-flow chunk through the logic's PutPerflow, the one its Table promotes,
// so the override here holds the put before the table's lock.
type heldPutLogic struct {
	*mbtest.CounterLogic
	shared        bool
	entered, held chan struct{}
	hold, letGo   sync.Once
}

func newHeldPutLogic(shared bool) *heldPutLogic {
	return &heldPutLogic{CounterLogic: mbtest.NewCounterLogic(16), shared: shared, entered: make(chan struct{}), held: make(chan struct{})}
}

func (l *heldPutLogic) wait() {
	l.hold.Do(func() {
		close(l.entered)
		<-l.held
	})
}

func (l *heldPutLogic) release() { l.letGo.Do(func() { close(l.held) }) }

func (l *heldPutLogic) PutPerflow(class state.Class, c state.Chunk) error {
	if !l.shared {
		l.wait()
	}
	return l.CounterLogic.PutPerflow(class, c)
}

func (l *heldPutLogic) PutShared(class state.Class, blob []byte) error {
	if l.shared {
		l.wait()
	}
	return l.CounterLogic.PutShared(class, blob)
}

// awaitEntered waits for the hold. Registered after the runtime hosting l,
// its cleanup releases the hold before that runtime closes.
func (l *heldPutLogic) awaitEntered(t *testing.T) {
	t.Helper()
	t.Cleanup(l.release)
	select {
	case <-l.entered:
	case <-time.After(gateDeadline):
		t.Fatalf("no put reached the hold within %v", gateDeadline)
	}
}

// newCtrlRig starts a controller over a memory transport and attaches each
// named logic to it.
func newCtrlRig(t *testing.T, opts Options, mbs map[string]mbox.Logic) *Controller {
	t.Helper()
	c := NewController(opts)
	tr := sbi.NewMemTransport()
	if err := c.Serve(tr, "ctrl"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	for name, logic := range mbs {
		rt := mbox.New(name, logic, mbox.Options{})
		t.Cleanup(rt.Close)
		if err := rt.Connect(tr, "ctrl"); err != nil {
			t.Fatal(err)
		}
		if err := c.WaitForMB(name, 2*time.Second); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// TestWaitTxnsCoversDataPhase: a move whose destination has not yet ACKed a
// put is a live transaction, so WaitTxns does not report it done.
func TestWaitTxnsCoversDataPhase(t *testing.T) {
	const keys = 100
	src, dst := mbtest.NewCounterLogic(16), newHeldPutLogic(false)
	src.Preload(keys)
	c := newCtrlRig(t, Options{QuietPeriod: 20 * time.Millisecond}, map[string]mbox.Logic{"src": src, "dst": dst})
	moved := make(chan error, 1)
	go func() { moved <- c.MoveInternal("src", "dst", packet.MatchAll) }()
	dst.awaitEntered(t)
	if c.WaitTxns(200 * time.Millisecond) {
		t.Fatalf("WaitTxns returned true mid-data-phase with %d transactions live", c.LiveTxns())
	}
	if n := c.LiveTxns(); n != 1 {
		t.Fatalf("%d transactions live mid-data-phase, want 1", n)
	}
	dst.release()
	if err := <-moved; err != nil {
		t.Fatal(err)
	}
	if !c.WaitTxns(10 * time.Second) {
		t.Fatal("move did not settle")
	}
	if n := c.LiveTxns(); n != 0 {
		t.Fatalf("%d transactions live after WaitTxns", n)
	}
	if dst.Flows() != keys || src.Flows() != 0 {
		t.Fatalf("after the move: dst %d flows, src %d", dst.Flows(), src.Flows())
	}
}

// TestNodeShutdownWaitsForDataPhase: a graceful shutdown issued while a move
// waits on its destination's put returns only once that move has completed
// and detached, or once its timeout has passed.
func TestNodeShutdownWaitsForDataPhase(t *testing.T) {
	const keys = 100
	start := func(t *testing.T) (*Node, *mbtest.CounterLogic, *heldPutLogic, chan error) {
		r := newNodeRig(t, sbi.NewMemTransport(), Options{QuietPeriod: 20 * time.Millisecond}, "a")
		src, dst := mbtest.NewCounterLogic(16), newHeldPutLogic(false)
		src.Preload(keys)
		r.attach("src", src, "a")
		r.attach("dst", dst, "a")
		n := r.nodes["a"]
		moved := make(chan error, 1)
		go func() { moved <- n.MoveInternal("src", "dst", packet.MatchAll) }()
		dst.awaitEntered(t)
		return n, src, dst, moved
	}

	t.Run("drains", func(t *testing.T) {
		n, src, dst, moved := start(t)
		shut := make(chan struct{})
		go func() { n.Shutdown(30 * time.Second); close(shut) }()
		select {
		case <-shut:
			t.Fatalf("Shutdown returned mid-data-phase with %d transactions live", n.LiveTxns())
		case <-time.After(200 * time.Millisecond):
		}
		dst.release()
		select {
		case <-shut:
		case <-time.After(30 * time.Second):
			t.Fatal("Shutdown never returned")
		}
		if err := <-moved; err != nil {
			t.Fatalf("move under a graceful shutdown: %v", err)
		}
		if n := n.LiveTxns(); n != 0 {
			t.Fatalf("%d transactions live after Shutdown", n)
		}
		if dst.Flows() != keys || src.Flows() != 0 {
			t.Fatalf("after Shutdown: dst %d flows, src %d (the move's finish must run first)", dst.Flows(), src.Flows())
		}
	})

	t.Run("timeout", func(t *testing.T) {
		const timeout = 150 * time.Millisecond
		n, _, _, _ := start(t)
		t0 := time.Now()
		n.Shutdown(timeout)
		if took := time.Since(t0); took < timeout {
			t.Fatalf("Shutdown returned after %v with a move in its data phase, want its %v timeout", took, timeout)
		}
	})
}

// TestTransactionTablesReleasedBesideLiveClone: a move's detach releases the
// router tables its keys emptied even while another transaction from the
// same source stays live, so the only shard left holding tables is the one
// packet.SharedID routes to.
func TestTransactionTablesReleasedBesideLiveClone(t *testing.T) {
	const keys = 20000
	src, dst, cloneDst := mbtest.NewCounterLogic(16), mbtest.NewCounterLogic(16), newHeldPutLogic(true)
	src.Preload(keys)
	c := newCtrlRig(t, Options{Shards: 16, QuietPeriod: 10 * time.Millisecond},
		map[string]mbox.Logic{"src": src, "dst": dst, "clone": cloneDst})
	cloned := make(chan error, 1)
	go func() { cloned <- c.CloneSupport("src", "clone") }()
	cloneDst.awaitEntered(t)

	if err := c.MoveInternal("src", "dst", packet.MatchAll); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 10*time.Second, "the move to detach", func() bool { return c.LiveTxns() == 1 })
	if dst.Flows() != keys || src.Flows() != 0 {
		t.Fatalf("after the move: dst %d flows, src %d", dst.Flows(), src.Flows())
	}
	if n := RouterTablesForTest(c); n != 1 {
		t.Errorf("%d router shards keep tables beside the live clone, want 1 (packet.SharedID's)", n)
	}
	srcMB, err := c.mb("src")
	if err != nil {
		t.Fatal(err)
	}
	sh := srcMB.router.shard(packet.SharedID)
	sh.mu.Lock()
	held := sh.shared != nil
	sh.mu.Unlock()
	if !held {
		t.Error("the live clone's packet.SharedID shard holds no shared entry")
	}

	cloneDst.release()
	if err := <-cloned; err != nil {
		t.Fatal(err)
	}
	if !c.WaitTxns(10 * time.Second) {
		t.Fatal("clone did not settle")
	}
	if n := RouterTablesForTest(c); n != 0 {
		t.Errorf("%d router shards keep tables after the clone", n)
	}
}
