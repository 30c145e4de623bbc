package core

// Distributed-cluster tests: the replicated directory's conflict rule, the
// peer mesh over real TCP sockets, quorum-refused ownership under an
// asymmetric partition (with heal), cross-node pulls and moves with exact
// per-flow conservation, and TCP ports of the PR 6 chaos scenarios (flap
// storm, asymmetric partition) through the fault-injection transport
// wrapping real listeners. CI runs these under -race in the distributed job.

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"openmb/internal/faults"
	"openmb/internal/mbox"
	"openmb/internal/mbox/mbtest"
	"openmb/internal/packet"
	"openmb/internal/sbi"
)

func TestRepDirectoryConflictRule(t *testing.T) {
	d := newRepDirectory()
	if _, ok := d.lookup("mb"); ok {
		t.Fatal("empty directory resolved a name")
	}

	// next proposes but must not apply: a refused commit leaves no trace.
	e := d.next("mb", "a")
	if e.Version != 1 || e.Node != "a" {
		t.Fatalf("first proposal = %+v, want version 1 node a", e)
	}
	if _, ok := d.lookup("mb"); ok {
		t.Fatal("proposal applied without commit")
	}

	if !d.apply(e) {
		t.Fatal("first apply rejected")
	}
	if owner, _ := d.lookup("mb"); owner != "a" {
		t.Fatalf("owner = %s, want a", owner)
	}

	// Higher version wins regardless of arrival order.
	if !d.apply(sbi.DirEntry{Name: "mb", Node: "b", Version: 3}) {
		t.Fatal("higher version rejected")
	}
	if d.apply(sbi.DirEntry{Name: "mb", Node: "z", Version: 2}) {
		t.Fatal("stale version applied")
	}
	if owner, _ := d.lookup("mb"); owner != "b" {
		t.Fatalf("owner = %s, want b", owner)
	}

	// Equal versions break toward the greater node name — both orders
	// converge to the same record, the whole point of the rule.
	d1, d2 := newRepDirectory(), newRepDirectory()
	ea := sbi.DirEntry{Name: "x", Node: "alpha", Version: 5}
	eb := sbi.DirEntry{Name: "x", Node: "beta", Version: 5}
	d1.apply(ea)
	d1.apply(eb)
	d2.apply(eb)
	d2.apply(ea)
	o1, _ := d1.lookup("x")
	o2, _ := d2.lookup("x")
	if o1 != "beta" || o2 != "beta" {
		t.Fatalf("tie converged to %q/%q, want beta/beta", o1, o2)
	}
}

// newTestNode starts a node over the given transport on a loopback port.
func newTestNode(t *testing.T, name string, tr sbi.Transport) *Node {
	t.Helper()
	n := NewNode(NodeOptions{
		Name:            name,
		PeerCallTimeout: 400 * time.Millisecond,
		Cluster:         ClusterOptions{Controller: Options{QuietPeriod: 60 * time.Millisecond}},
	})
	if err := n.Serve(tr, "127.0.0.1:0"); err != nil {
		t.Skipf("no loopback networking: %v", err)
	}
	t.Cleanup(n.Close)
	return n
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func attachNodeMB(t *testing.T, name string, logic mbox.Logic, addrs string) *mbox.Runtime {
	t.Helper()
	rt := mbox.New(name, logic, mbox.Options{
		Reconnect:    true,
		ReconnectMin: 2 * time.Millisecond,
		ReconnectMax: 50 * time.Millisecond,
	})
	t.Cleanup(rt.Close)
	if err := rt.Connect(sbi.TCPTransport{}, addrs); err != nil {
		t.Fatal(err)
	}
	return rt
}

// TestNodeJoinMeshAndDirectory brings up a three-node cluster over TCP with
// one Join call per late node: the mesh must complete itself from the
// directory-sync exchange, and a middlebox registration on one node must be
// quorum-committed into every replica of the directory before it is
// accepted.
func TestNodeJoinMeshAndDirectory(t *testing.T) {
	a := newTestNode(t, "a", sbi.TCPTransport{})
	b := newTestNode(t, "b", sbi.TCPTransport{})
	c := newTestNode(t, "c", sbi.TCPTransport{})
	if err := b.Join(a.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := c.Join(a.Addr()); err != nil {
		t.Fatal(err)
	}
	for _, n := range []*Node{a, b, c} {
		waitUntil(t, 10*time.Second, n.Name()+" full mesh", func() bool {
			return len(n.Peers()) == 2 && n.KnownNodes() == 3
		})
	}

	attachNodeMB(t, "mb1", mbtest.NewCounterLogic(16), a.Addr())
	if err := a.WaitForMB("mb1", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	// The registration was only accepted after the quorum round, so every
	// acking node already holds the entry.
	for _, n := range []*Node{a, b, c} {
		waitUntil(t, 5*time.Second, n.Name()+" directory entry", func() bool {
			owner, ok := n.Lookup("mb1")
			return ok && owner == "a"
		})
	}
	if got := a.dirCommits.Load(); got != 1 {
		t.Fatalf("a committed %d ownership changes, want 1", got)
	}
}

// TestNodePullMovesSession registers a middlebox on node a knowing only a's
// address, then pulls it to b and back: each pull must redirect the
// middlebox (teaching it the new owner's address), re-register it under a
// quorum-committed directory bump, deregister it at the old owner, and
// leave the logic's state untouched.
func TestNodePullMovesSession(t *testing.T) {
	a := newTestNode(t, "a", sbi.TCPTransport{})
	b := newTestNode(t, "b", sbi.TCPTransport{})
	if err := b.Join(a.Addr()); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 10*time.Second, "mesh", func() bool {
		return len(a.Peers()) == 1 && len(b.Peers()) == 1
	})

	logic := mbtest.NewCounterLogic(16)
	attachNodeMB(t, "m1", logic, a.Addr())
	if err := a.WaitForMB("m1", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	logic.Preload(10)
	// Routing state at the old owner: an orphaned reprocess event.
	mbA, err := a.Controller.mb("m1")
	if err != nil {
		t.Fatal(err)
	}
	a.Controller.router.route(mbA, &sbi.Event{Kind: sbi.EventReprocess, Key: mbtest.FlowN(0), Seq: 1, Packet: []byte{1}})

	if err := b.Pull("m1"); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Controller.mb("m1"); err != nil {
		t.Fatalf("pulled middlebox not registered at b: %v", err)
	}
	// A release carries no routing state: the puller's router is as empty
	// as before the pull, and the old owner's goes with the connection.
	if n := RouterTablesForTest(b.Controller); n != 0 {
		t.Fatalf("%d router shards at b hold tables right after the pull", n)
	}
	waitUntil(t, 5*time.Second, "deregistration at a", func() bool {
		return len(a.Middleboxes()) == 0
	})
	if n := RouterTablesForTest(a.Controller); n != 0 {
		t.Fatalf("%d router shards at a hold tables after m1 left", n)
	}
	for _, n := range []*Node{a, b} {
		if owner, _ := n.Lookup("m1"); owner != "b" {
			t.Fatalf("%s directory says %q owns m1, want b", n.Name(), owner)
		}
	}
	if v := b.repdir.version("m1"); v != 2 {
		t.Fatalf("directory version %d after pull, want 2", v)
	}
	if got := logic.Flows(); got != 10 {
		t.Fatalf("pull disturbed logic state: %d flows, want 10", got)
	}

	// Pull it back, then verify an already-local pull is a no-op.
	if err := a.Pull("m1"); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, "directory flip back to a", func() bool {
		ob, _ := b.Lookup("m1")
		oa, _ := a.Lookup("m1")
		return oa == "a" && ob == "a"
	})
	if v := a.repdir.version("m1"); v != 3 {
		t.Fatalf("directory version %d after pull-back, want 3", v)
	}
	if err := a.Pull("m1"); err != nil {
		t.Fatal(err)
	}
	if v := a.repdir.version("m1"); v != 3 {
		t.Fatalf("no-op pull bumped the directory to %d", v)
	}
	if a.pulls.Load() != 1 || b.pulls.Load() != 1 {
		t.Fatalf("pull counters a=%d b=%d, want 1/1", a.pulls.Load(), b.pulls.Load())
	}
}

// TestNodeCrossNodeMoveConservation is the tentpole's conservation check: a
// move whose endpoints start on different nodes, under live traffic, over
// real TCP. The source is pulled across the node boundary (release on the
// peer wire, redirect, re-register) and the move then runs locally;
// every preloaded count and every packet must land exactly once.
func TestNodeCrossNodeMoveConservation(t *testing.T) {
	const flows, rounds = 24, 4
	a := newTestNode(t, "a", sbi.TCPTransport{})
	b := newTestNode(t, "b", sbi.TCPTransport{})
	if err := b.Join(a.Addr()); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 10*time.Second, "mesh", func() bool {
		return len(a.Peers()) == 1 && len(b.Peers()) == 1
	})

	src := mbtest.NewCounterLogic(16)
	dst := mbtest.NewCounterLogic(16)
	srcRT := attachNodeMB(t, "src", src, a.Addr())
	attachNodeMB(t, "dst", dst, b.Addr())
	if err := a.WaitForMB("src", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := b.WaitForMB("dst", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	src.Preload(flows)

	var traffic sync.WaitGroup
	traffic.Add(1)
	go func() {
		defer traffic.Done()
		for round := 0; round < rounds; round++ {
			for f := 0; f < flows; f++ {
				srcRT.HandlePacket(mbtest.PacketForFlow(f))
			}
			time.Sleep(10 * time.Millisecond)
		}
	}()

	if err := b.MoveInternal("src", "dst", packet.MatchAll); err != nil {
		t.Fatalf("cross-node move: %v", err)
	}
	traffic.Wait()
	for _, rt := range []*mbox.Runtime{srcRT} {
		if !rt.Drain(10 * time.Second) {
			t.Fatal("source did not drain")
		}
	}
	if !b.WaitTxns(30 * time.Second) {
		t.Fatal("cross-node move transactions did not complete")
	}
	if !srcRT.Drain(10 * time.Second) {
		t.Fatal("source did not drain after txns")
	}

	for f := 0; f < flows; f++ {
		k := mbtest.FlowN(f)
		if got := src.Count(k) + dst.Count(k); got != rounds+1 {
			t.Fatalf("flow %d: combined count %d, want %d", f, got, rounds+1)
		}
	}
	if got := src.Flows(); got != 0 {
		t.Fatalf("source still holds %d flows", got)
	}
	if got := dst.Flows(); got != flows {
		t.Fatalf("destination holds %d flows, want %d", got, flows)
	}
	assertRoutersQuiescent(t, b.Controller)
	if got := b.LiveTxns(); got != 0 {
		t.Fatalf("%d transactions leaked at b", got)
	}
	if got := a.LiveTxns(); got != 0 {
		t.Fatalf("%d transactions leaked at a", got)
	}
}

// TestNodePartitionRefusesOwnership puts one node of three behind a
// directional blackhole (its outbound bytes vanish; it still hears the
// world — the nastiest partition shape): a middlebox registering there must
// be refused for lack of quorum and fail over to a majority node, the
// partitioned node must keep serving stale directory reads, and after the
// heal the mesh must re-form and the node must commit registrations again.
func TestNodePartitionRefusesOwnership(t *testing.T) {
	ftC := faults.New(sbi.TCPTransport{}, faults.Options{})
	a := newTestNode(t, "a", sbi.TCPTransport{})
	b := newTestNode(t, "b", sbi.TCPTransport{})
	c := newTestNode(t, "c", ftC)
	if err := b.Join(a.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := c.Join(a.Addr()); err != nil {
		t.Fatal(err)
	}
	for _, n := range []*Node{a, b, c} {
		waitUntil(t, 10*time.Second, n.Name()+" full mesh", func() bool {
			return len(n.Peers()) == 2
		})
	}
	attachNodeMB(t, "mb1", mbtest.NewCounterLogic(16), a.Addr())
	if err := a.WaitForMB("mb1", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	waitUntil(t, 5*time.Second, "mb1 in c's directory", func() bool {
		owner, ok := c.Lookup("mb1")
		return ok && owner == "a"
	})

	// Everything c writes now vanishes; everything written TO c arrives.
	ftC.SetPartition(true, true)

	// A middlebox that prefers c must be refused there (c cannot commit
	// ownership: its quorum round goes dark) and land on a instead — the
	// rotation through its candidate list is the failover.
	attachNodeMB(t, "mb2", mbtest.NewCounterLogic(16), c.Addr()+","+a.Addr())
	if err := a.WaitForMB("mb2", 20*time.Second); err != nil {
		t.Fatalf("refused middlebox never failed over to the majority: %v", err)
	}
	if got := c.dirRefusals.Load(); got == 0 {
		t.Fatal("partitioned node refused nothing")
	}
	if got := c.Middleboxes(); len(got) != 0 {
		t.Fatalf("partitioned node accepted a registration: %v", got)
	}
	// Stale-but-safe reads: the partitioned node still answers from its
	// last synchronized view.
	if owner, ok := c.Lookup("mb1"); !ok || owner != "a" {
		t.Fatalf("partitioned node lost its stale view: %q %v", owner, ok)
	}

	// Heal. Latched-dark connections never resume (mid-frame delivery would
	// desynchronize the codec); the peers' call-timeout-closes-the-link
	// discipline plus redial is what actually restores the mesh.
	ftC.SetPartition(false, false)
	for _, n := range []*Node{a, b, c} {
		waitUntil(t, 20*time.Second, n.Name()+" mesh re-formed", func() bool {
			return len(n.Peers()) == 2
		})
	}
	// The healed node commits registrations again, and the commit reaches
	// the majority side's directories.
	attachNodeMB(t, "mb3", mbtest.NewCounterLogic(16), c.Addr())
	if err := c.WaitForMB("mb3", 20*time.Second); err != nil {
		t.Fatalf("healed node cannot accept registrations: %v", err)
	}
	waitUntil(t, 10*time.Second, "mb3 propagated to a", func() bool {
		owner, ok := a.Lookup("mb3")
		return ok && owner == "c"
	})
}

// TestTCPClusterReconnectFlapStorm is the PR 6 flap-storm chaos scenario
// ported from the in-memory transport to real TCP listeners wrapped in the
// fault-injection transport: repeated whole-fleet connection kills against
// reconnecting runtimes, then a full workload with moves that must come out
// loss-free, and no goroutine leaks from the churn.
func TestTCPClusterReconnectFlapStorm(t *testing.T) {
	const pairs, flows, rounds, storms = 2, 20, 3, 2
	before := runtime.NumGoroutine()
	ft := faults.New(sbi.TCPTransport{}, faults.Options{Seed: 42})
	cl := NewController(Options{
		QuietPeriod:       60 * time.Millisecond,
		HeartbeatInterval: 25 * time.Millisecond,
	})
	if err := cl.Serve(ft, "127.0.0.1:0"); err != nil {
		t.Skipf("no loopback networking: %v", err)
	}
	addr := cl.Addr()

	names := make([]string, 0, 2*pairs)
	srcs := make([]*mbtest.CounterLogic, pairs)
	dsts := make([]*mbtest.CounterLogic, pairs)
	rts := map[string]*mbox.Runtime{}
	attach := func(name string, logic *mbtest.CounterLogic) {
		rt := mbox.New(name, logic, mbox.Options{
			Reconnect:    true,
			ReconnectMin: 2 * time.Millisecond,
			ReconnectMax: 40 * time.Millisecond,
		})
		if err := rt.Connect(ft, addr); err != nil {
			t.Fatal(err)
		}
		if err := cl.WaitForMB(name, 5*time.Second); err != nil {
			t.Fatal(err)
		}
		rts[name] = rt
		names = append(names, name)
	}
	for i := 0; i < pairs; i++ {
		srcs[i] = mbtest.NewCounterLogic(16)
		dsts[i] = mbtest.NewCounterLogic(16)
		attach(fmt.Sprintf("src%d", i), srcs[i])
		attach(fmt.Sprintf("dst%d", i), dsts[i])
	}

	fleetReconnects := func() uint64 {
		var total uint64
		for _, rt := range rts {
			total += rt.Metrics().Reconnects
		}
		return total
	}
	for round := 0; round < storms; round++ {
		if n := ft.KillAll(); n == 0 {
			t.Fatalf("storm round %d found no connections to kill", round)
		}
		want := uint64(2 * pairs * (round + 1))
		deadline := time.Now().Add(10 * time.Second)
		for fleetReconnects() < want {
			if time.Now().After(deadline) {
				t.Fatalf("storm round %d: fleet reconnected %d times, want >= %d",
					round, fleetReconnects(), want)
			}
			time.Sleep(2 * time.Millisecond)
		}
		for _, name := range names {
			if err := cl.WaitForMB(name, 10*time.Second); err != nil {
				t.Fatalf("storm round %d: %s never reconnected: %v", round, name, err)
			}
		}
	}

	for i := 0; i < pairs; i++ {
		srcs[i].Preload(flows)
	}
	var traffic sync.WaitGroup
	for i := 0; i < pairs; i++ {
		traffic.Add(1)
		go func(i int) {
			defer traffic.Done()
			rt := rts[fmt.Sprintf("src%d", i)]
			for round := 0; round < rounds; round++ {
				for f := 0; f < flows; f++ {
					rt.HandlePacket(mbtest.PacketForFlow(f))
				}
				time.Sleep(5 * time.Millisecond)
			}
		}(i)
	}
	moveErrs := make([]error, pairs)
	var moves sync.WaitGroup
	for i := 0; i < pairs; i++ {
		moves.Add(1)
		go func(i int) {
			defer moves.Done()
			moveErrs[i] = cl.MoveInternal(fmt.Sprintf("src%d", i), fmt.Sprintf("dst%d", i), packet.MatchAll)
		}(i)
	}
	moves.Wait()
	traffic.Wait()
	for i, err := range moveErrs {
		if err != nil {
			t.Fatalf("move %d after flap storm: %v", i, err)
		}
	}
	for name, rt := range rts {
		if !rt.Drain(10 * time.Second) {
			t.Fatalf("%s did not drain", name)
		}
	}
	if !cl.WaitTxns(30 * time.Second) {
		t.Fatal("transactions did not complete after flap storm")
	}
	for name, rt := range rts {
		if !rt.Drain(10 * time.Second) {
			t.Fatalf("%s did not drain", name)
		}
	}
	for i := 0; i < pairs; i++ {
		for f := 0; f < flows; f++ {
			k := mbtest.FlowN(f)
			if got := srcs[i].Count(k) + dsts[i].Count(k); got != rounds+1 {
				t.Fatalf("pair %d flow %d: combined count %d, want %d", i, f, got, rounds+1)
			}
		}
	}
	assertRoutersQuiescent(t, cl)

	for _, rt := range rts {
		rt.Close()
	}
	cl.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+10 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after teardown", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestTCPAsymmetricPartition is the PR 6 asymmetric-partition scenario over
// real TCP: the middlebox→controller direction goes dark while the reverse
// stays up; heartbeats must detect it, reconnect attempts must be cut off
// by HelloTimeout while the partition stands, and the middlebox must
// re-register on its own once it heals.
func TestTCPAsymmetricPartition(t *testing.T) {
	ft := faults.New(sbi.TCPTransport{}, faults.Options{})
	c := NewController(Options{
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatMisses:   3,
		HelloTimeout:      100 * time.Millisecond,
	})
	if err := c.Serve(ft, "127.0.0.1:0"); err != nil {
		t.Skipf("no loopback networking: %v", err)
	}
	defer c.Close()

	rt := mbox.New("mb", mbtest.NewCounterLogic(4), mbox.Options{
		Reconnect:    true,
		ReconnectMin: 2 * time.Millisecond,
		ReconnectMax: 20 * time.Millisecond,
	})
	defer rt.Close()
	if err := rt.Connect(ft, c.Addr()); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitForMB("mb", 5*time.Second); err != nil {
		t.Fatal(err)
	}

	ft.SetPartition(true, false)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := c.mb("mb"); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("partitioned connection never declared dead")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got := c.Metrics().HeartbeatDeaths; got == 0 {
		t.Fatal("partition was not detected by heartbeat")
	}

	time.Sleep(300 * time.Millisecond)
	if _, err := c.mb("mb"); err == nil {
		t.Fatal("middlebox registered through a standing partition")
	}

	ft.SetPartition(false, false)
	if err := c.WaitForMB("mb", 10*time.Second); err != nil {
		t.Fatalf("middlebox never re-registered after the partition healed: %v", err)
	}
	if got := rt.Metrics().Reconnects; got == 0 {
		t.Fatal("runtime reports no reconnects")
	}
}
