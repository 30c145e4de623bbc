package core

// Failure-domain tests: replica failure mid-move (the kill-a-replica chaos
// scenario), heartbeat liveness detection, truncated-hello timeouts on both
// accept paths, a reconnect flap storm through the fault-injection
// transport, and an asymmetric partition. CI runs this file under -race.

import (
	"fmt"
	"net"
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

// recoverySLO is the stated bound on failure recovery: from the instant a
// replica is declared dead until an aborted cross-partition move has rolled
// back and re-run to completion on the survivors. Generous against CI -race
// slowness; the interactive path is dominated by one quiet period and the
// re-streamed transfer, tens of milliseconds here.
const recoverySLO = 5 * time.Second

// TestFailReplicaMidMove is the kill-a-replica-mid-move chaos scenario: a
// gated logic pins pair 0's move provably mid-data-phase — registered keys,
// outstanding puts, buffered events all live on the coordinating replica —
// and that replica is then declared failed, under live traffic, with
// heartbeats running. The move must roll back and re-run on the survivors
// within the recovery SLO, with zero packet loss (combined counts exact),
// no leaked transactions, and no heartbeat false positives — over a clean
// wire and over one that splits writes and jitters them.
func TestFailReplicaMidMove(t *testing.T) {
	t.Run("MemTransport", func(t *testing.T) { failReplicaMidMove(t, sbi.NewMemTransport()) })
	t.Run("FaultyTransport", func(t *testing.T) {
		failReplicaMidMove(t, faults.New(sbi.NewMemTransport(), faults.Options{
			Seed:          11,
			PartialWrites: true,
			Delay:         200 * time.Microsecond,
			DelayProb:     0.2,
		}))
	})
}

func failReplicaMidMove(t *testing.T, tr sbi.Transport) {
	const pairs, flows, rounds = 2, 40, 5
	r := newClusterRigOpts(t, 3, pairs, true, Options{
		QuietPeriod:       60 * time.Millisecond,
		HeartbeatInterval: 25 * time.Millisecond,
		// Frames smaller than the gate's ten chunks, and the kill waits
		// for one to land: the destination holds a partial copy when the
		// replica dies, so the rollback's delete there is what keeps the
		// restart from counting it twice.
		BatchSize: 4,
	}, tr)
	for i := 0; i < pairs; i++ {
		r.srcs[i].Preload(flows)
	}

	var traffic sync.WaitGroup
	for i := 0; i < pairs; i++ {
		traffic.Add(1)
		go func(i int) {
			defer traffic.Done()
			rt := r.rts[fmt.Sprintf("src%d", i)]
			for round := 0; round < rounds; round++ {
				for f := 0; f < flows; f++ {
					rt.HandlePacket(mbtest.PacketForFlow(f))
				}
				time.Sleep(10 * time.Millisecond)
			}
		}(i)
	}

	var moves sync.WaitGroup
	moveErrs := make([]error, pairs)
	for i := 0; i < pairs; i++ {
		moves.Add(1)
		go func(i int) {
			defer moves.Done()
			moveErrs[i] = r.cl.MoveInternal(fmt.Sprintf("src%d", i), fmt.Sprintf("dst%d", i), packet.MatchAll)
		}(i)
	}

	// The gate guarantees pair 0's move is frozen mid-stream when the
	// coordinating replica (the move source's owner) dies.
	r.gate.awaitReached(t, r.rts["src0"])
	for deadline := time.Now().Add(gateDeadline); r.dsts[0].Flows() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("no frame of the pinned move reached the destination")
		}
		time.Sleep(100 * time.Microsecond)
	}
	coord, err := r.cl.ReplicaOf("src0")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := r.cl.FailReplica(coord); err != nil {
		t.Fatalf("fail replica %d: %v", coord, err)
	}
	close(r.gate.release)
	moves.Wait()
	recovery := time.Since(start)
	for i, err := range moveErrs {
		if err != nil {
			t.Fatalf("move %d across replica failure: %v", i, err)
		}
	}
	if recovery > recoverySLO {
		t.Fatalf("recovery took %v, SLO %v", recovery, recoverySLO)
	}

	traffic.Wait()
	r.drainAll(t)
	if !r.cl.WaitTxns(30 * time.Second) {
		t.Fatal("transactions did not complete after replica failure")
	}
	r.drainAll(t)

	// The mid-flight move really was aborted and restarted, not silently
	// completed on the dead coordinator.
	if got := r.cl.Metrics().MovesStarted; got < pairs+1 {
		t.Fatalf("only %d moves started; the failure aborted nothing", got)
	}
	// Conservation: 1 preloaded count + `rounds` packets per flow, exactly
	// once each, across abort, rollback, and restart.
	for i := 0; i < pairs; i++ {
		for f := 0; f < flows; f++ {
			k := mbtest.FlowN(f)
			if got := r.srcs[i].Count(k) + r.dsts[i].Count(k); got != rounds+1 {
				t.Fatalf("pair %d flow %d: combined count %d, want %d", i, f, got, rounds+1)
			}
		}
		if got := r.srcs[i].Flows(); got != 0 {
			t.Fatalf("pair %d: source still holds %d flows after recovered move", i, got)
		}
		if got := r.dsts[i].Flows(); got != flows {
			t.Fatalf("pair %d: destination holds %d flows, want %d", i, got, flows)
		}
	}
	assertRoutersQuiescent(t, r.cl)
	if got := r.cl.registry.Live(); got != 0 {
		t.Fatalf("%d transactions leaked in the registry", got)
	}
	if got := r.cl.Metrics().HeartbeatDeaths; got != 0 {
		t.Fatalf("heartbeats killed %d live connections under load", got)
	}
}

// TestFailReplicaValidation covers the edges: bad indices, double failure,
// failing the last live replica, and the failed replica being refused as a
// rebalance or drain target — while the surviving cluster keeps serving
// every northbound operation.
func TestFailReplicaValidation(t *testing.T) {
	r := newClusterRig(t, 2, 1, false)
	if err := r.cl.FailReplica(5); err == nil {
		t.Fatal("out-of-range replica accepted")
	}
	if err := r.cl.FailReplica(0); err != nil {
		t.Fatalf("fail replica 0: %v", err)
	}
	if err := r.cl.FailReplica(0); err == nil {
		t.Fatal("double failure accepted")
	}
	if err := r.cl.FailReplica(1); err == nil {
		t.Fatal("failing the last live replica accepted")
	}
	if err := r.cl.Rebalance("src0", 0); err == nil {
		t.Fatal("rebalance onto a failed replica accepted")
	}
	if err := r.cl.Drain(1); err == nil {
		t.Fatal("drain with no live target accepted")
	}

	// Everything the dead replica owned migrated; the survivors serve the
	// full northbound API.
	for _, name := range []string{"src0", "dst0"} {
		ri, err := r.cl.ReplicaOf(name)
		if err != nil {
			t.Fatal(err)
		}
		if ri != 1 {
			t.Fatalf("%s still on failed replica %d", name, ri)
		}
	}
	if _, err := r.cl.Stats("src0", packet.MatchAll); err != nil {
		t.Fatalf("stats after failover: %v", err)
	}
	if err := r.cl.WriteConfig("src0", "knob", []string{"v"}); err != nil {
		t.Fatalf("writeConfig after failover: %v", err)
	}
	r.srcs[0].Preload(10)
	if err := r.cl.MoveInternal("src0", "dst0", packet.MatchAll); err != nil {
		t.Fatalf("move after failover: %v", err)
	}
	if got := r.dsts[0].Flows(); got != 10 {
		t.Fatalf("post-failover move delivered %d flows, want 10", got)
	}
	if !r.cl.WaitTxns(10 * time.Second) {
		t.Fatal("post-failover move did not complete")
	}
	if got := r.cl.registry.Live(); got != 0 {
		t.Fatalf("%d transactions leaked", got)
	}
}

// TestHeartbeatDetectsSilentPeer proves liveness detection both ways: a
// peer that registers and then goes silent (a wedged process — it neither
// writes nor reads) is probed, declared dead after the miss threshold, and
// deregistered through the normal disconnect cleanup; a responsive but idle
// middlebox is probed too and must never be killed.
func TestHeartbeatDetectsSilentPeer(t *testing.T) {
	c := NewController(Options{HeartbeatInterval: 25 * time.Millisecond, HeartbeatMisses: 4})
	tr := sbi.NewMemTransport()
	if err := c.Serve(tr, "ctrl"); err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rt := mbox.New("alive", mbtest.NewCounterLogic(4), mbox.Options{})
	defer rt.Close()
	if err := rt.Connect(tr, "ctrl"); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitForMB("alive", 5*time.Second); err != nil {
		t.Fatal(err)
	}

	raw, err := tr.Dial("ctrl")
	if err != nil {
		t.Fatal(err)
	}
	conn := sbi.NewConn(raw)
	defer conn.Close()
	if err := conn.Send(&sbi.Message{Type: sbi.MsgHello, Name: "silent"}); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitForMB("silent", 5*time.Second); err != nil {
		t.Fatal(err)
	}

	// The silent peer must be deregistered within a few miss windows.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := c.mb("silent"); err != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("silent peer never declared dead")
		}
		time.Sleep(5 * time.Millisecond)
	}
	m := c.Metrics()
	if m.HeartbeatDeaths != 1 {
		t.Fatalf("heartbeat deaths = %d, want 1", m.HeartbeatDeaths)
	}
	if m.PingsSent == 0 {
		t.Fatal("no pings sent before declaring the peer dead")
	}
	// The responsive middlebox — equally idle, so it IS being probed — must
	// still be registered: its pongs prove liveness.
	if _, err := c.mb("alive"); err != nil {
		t.Fatalf("responsive middlebox was killed: %v", err)
	}
}

// TestTruncatedHelloTimesOut sends a partial hello frame — bytes that never
// complete a newline-delimited JSON message — on both accept paths. The
// accept goroutine must close the connection after HelloTimeout rather than
// hang forever, and a well-formed registration afterwards must succeed.
func TestTruncatedHelloTimesOut(t *testing.T) {
	opts := Options{HelloTimeout: 50 * time.Millisecond}
	c := NewController(opts)
	cl := NewCluster(ClusterOptions{Replicas: 3, Controller: opts})
	cases := []struct {
		name    string
		serve   func(tr sbi.Transport) error
		stop    func()
		waitFor func(name string, d time.Duration) error
	}{
		{"controller", func(tr sbi.Transport) error { return c.Serve(tr, "ctrl") }, c.Close, c.WaitForMB},
		{"cluster", func(tr sbi.Transport) error { return cl.Serve(tr, "ctrl") }, cl.Close, cl.WaitForMB},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr := sbi.NewMemTransport()
			if err := tc.serve(tr); err != nil {
				t.Fatal(err)
			}
			defer tc.stop()

			raw, err := tr.Dial("ctrl")
			if err != nil {
				t.Fatal(err)
			}
			defer raw.Close()
			if _, err := raw.Write([]byte(`{"type":"hello","na`)); err != nil {
				t.Fatal(err)
			}
			// The accept path must CLOSE the connection (our read unblocks
			// with a peer-close error), not sit on it until our own read
			// deadline fires.
			_ = raw.SetReadDeadline(time.Now().Add(2 * time.Second))
			if _, err := raw.Read(make([]byte, 1)); err == nil {
				t.Fatal("read succeeded on a truncated hello")
			} else if ne, ok := err.(net.Error); ok && ne.Timeout() {
				t.Fatal("accept goroutine still pinned after HelloTimeout")
			}

			// The listener kept accepting throughout: a real middlebox
			// registers fine.
			rt := mbox.New("post-truncation", mbtest.NewCounterLogic(4), mbox.Options{})
			defer rt.Close()
			if err := rt.Connect(tr, "ctrl"); err != nil {
				t.Fatal(err)
			}
			if err := tc.waitFor("post-truncation", 5*time.Second); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestClusterReconnectFlapStorm runs repeated whole-fleet connection kills
// through the fault-injection transport against reconnecting runtimes: the
// fleet must re-register after every storm round, a full workload with
// moves must then run loss-free on the re-established sessions, and the
// churn must not leak goroutines.
func TestClusterReconnectFlapStorm(t *testing.T) {
	const pairs, flows, rounds, storms = 3, 30, 4, 3
	before := runtime.NumGoroutine()
	ft := faults.New(sbi.NewMemTransport(), faults.Options{Seed: 42})
	cl := NewCluster(ClusterOptions{Replicas: 3, Controller: Options{
		QuietPeriod:       60 * time.Millisecond,
		HeartbeatInterval: 25 * time.Millisecond,
	}})
	if err := cl.Serve(ft, "cluster"); err != nil {
		t.Fatal(err)
	}

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
		if err := rt.Connect(ft, "cluster"); err != nil {
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

	// The storm: sever every live connection, wait for the whole fleet to
	// re-establish sessions AND re-register, repeat. The session count is
	// the gate — WaitForMB alone can pass on the dying round's still-
	// registered entry before its cleanup lands.
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

	// Full workload on the re-established sessions: session resume is the
	// re-run hello, so marks/filters/state all live runtime-side and the
	// counts must come out exact.
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

	// Goroutine hygiene: tear everything down and verify the storm's churn
	// (read loops, reconnect loops, heartbeats, ping writers) all exited.
	for _, rt := range rts {
		rt.Close()
	}
	cl.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before+10 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after teardown", before, n)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestAsymmetricPartition blackholes the middlebox→controller direction
// while the reverse stays up: the controller must declare the connection
// dead by heartbeat (its pings go through, the pongs vanish), reconnect
// attempts against the standing partition must be cut off by HelloTimeout
// rather than half-register, and once the partition heals the middlebox
// must re-register on its own.
func TestAsymmetricPartition(t *testing.T) {
	ft := faults.New(sbi.NewMemTransport(), faults.Options{})
	c := NewController(Options{
		HeartbeatInterval: 20 * time.Millisecond,
		HeartbeatMisses:   3,
		HelloTimeout:      100 * time.Millisecond,
	})
	if err := c.Serve(ft, "ctrl"); err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	rt := mbox.New("mb", mbtest.NewCounterLogic(4), mbox.Options{
		Reconnect:    true,
		ReconnectMin: 2 * time.Millisecond,
		ReconnectMax: 20 * time.Millisecond,
	})
	defer rt.Close()
	if err := rt.Connect(ft, "ctrl"); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitForMB("mb", 5*time.Second); err != nil {
		t.Fatal(err)
	}

	// Dark in the dialed (mb→controller) direction only.
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

	// Reconnect attempts keep hitting the partition: their hellos vanish,
	// so HelloTimeout must keep cutting them off — no registration.
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
