package core

// Cluster and handoff tests: the replicas=1 vs replicas=3 equivalence bed
// (the tentpole acceptance criterion), forced mid-move handoffs, the chaos
// handoff storm, the ownership-transfer codec round trip, cross-partition
// proxying, and the registration-storm test for the keyed waiter registry.
// CI runs this file under -race.

import (
	"fmt"
	"net"
	"reflect"
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

// clusterRig is a cluster with `pairs` counter-MB pairs attached over one
// transport. Pair 0's source is a gateLogic when gated is set.
type clusterRig struct {
	cl   *Cluster
	srcs []*mbtest.CounterLogic
	dsts []*mbtest.CounterLogic
	rts  map[string]*mbox.Runtime
	gate *gateLogic
}

func newClusterRig(t *testing.T, replicas, pairs int, gated bool) *clusterRig {
	t.Helper()
	return newClusterRigOpts(t, replicas, pairs, gated,
		Options{QuietPeriod: 60 * time.Millisecond}, sbi.NewMemTransport())
}

// newClusterRigOpts is newClusterRig with the controller options and the
// transport exposed — the failure tests enable heartbeats, shorten hello
// timeouts, and run over a fault-injecting wire.
func newClusterRigOpts(t *testing.T, replicas, pairs int, gated bool, ctrl Options, tr sbi.Transport) *clusterRig {
	t.Helper()
	r := &clusterRig{
		cl: NewCluster(ClusterOptions{
			Replicas:   replicas,
			Controller: ctrl,
		}),
		rts: map[string]*mbox.Runtime{},
	}
	if err := r.cl.Serve(tr, "cluster"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.cl.Close)
	attach := func(name string, logic mbox.Logic) {
		rt := mbox.New(name, logic, mbox.Options{})
		t.Cleanup(rt.Close)
		if err := rt.Connect(tr, "cluster"); err != nil {
			t.Fatal(err)
		}
		if err := r.cl.WaitForMB(name, 5*time.Second); err != nil {
			t.Fatal(err)
		}
		r.rts[name] = rt
	}
	for i := 0; i < pairs; i++ {
		var src *mbtest.CounterLogic
		if i == 0 && gated {
			r.gate = newGateLogic(10)
			src = r.gate.CounterLogic
			attach("src0", r.gate)
		} else {
			src = mbtest.NewCounterLogic(16)
			attach(fmt.Sprintf("src%d", i), src)
		}
		dst := mbtest.NewCounterLogic(16)
		attach(fmt.Sprintf("dst%d", i), dst)
		r.srcs = append(r.srcs, src)
		r.dsts = append(r.dsts, dst)
	}
	return r
}

// drainAll drains every runtime until quiescent.
func (r *clusterRig) drainAll(t *testing.T) {
	t.Helper()
	for name, rt := range r.rts {
		if !rt.Drain(10 * time.Second) {
			t.Fatalf("%s did not drain", name)
		}
	}
}

// combinedCounts returns, per pair, the combined per-flow counts across the
// pair's two instances — the externally visible final state a workload run
// must reproduce exactly regardless of replica count or handoffs.
func (r *clusterRig) combinedCounts(flows int) [][]uint64 {
	out := make([][]uint64, len(r.srcs))
	for i := range r.srcs {
		counts := make([]uint64, flows)
		for f := 0; f < flows; f++ {
			k := mbtest.FlowN(f)
			counts[f] = r.srcs[i].Count(k) + r.dsts[i].Count(k)
		}
		out[i] = counts
	}
	return out
}

// assertRoutersQuiescent verifies no routing state survived the workload on
// any replica: every transferred buffer drained, every detach purged.
func assertRoutersQuiescent(t *testing.T, cl *Cluster) {
	t.Helper()
	for ri, c := range cl.replicas {
		for si := range c.router.shards {
			sh := &c.router.shards[si]
			sh.mu.Lock()
			nk, no := len(sh.keys), len(sh.orphans)
			sh.mu.Unlock()
			if nk != 0 || no != 0 {
				t.Fatalf("replica %d shard %d not quiescent: keys=%d orphans=%d", ri, si, nk, no)
			}
		}
	}
}

// runClusterWorkload drives the randomized-equivalence workload: `pairs`
// concurrent moves (pair 0 pinned mid-stream by the gate) with live traffic
// and interleaved northbound gets/puts, forced handoffs while the gated
// move is provably in flight, then move-backs for the upper half of the
// pairs. Returns the combined per-flow counts per pair.
func runClusterWorkload(t *testing.T, replicas int, forceHandoffs bool) [][]uint64 {
	t.Helper()
	const pairs, flows, rounds = 4, 60, 5
	r := newClusterRig(t, replicas, pairs, true)
	for i := 0; i < pairs; i++ {
		r.srcs[i].Preload(flows)
	}

	// Traffic: a fixed schedule of rounds*flows packets per pair, paced to
	// span the move windows. The totals are deterministic, so the final
	// combined counts must be identical across replica counts.
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

	// Interleaved control-plane gets and puts on the non-gated pairs.
	ctlDone := make(chan struct{})
	var ctl sync.WaitGroup
	ctl.Add(1)
	go func() {
		defer ctl.Done()
		for i := 0; ; i++ {
			select {
			case <-ctlDone:
				return
			default:
			}
			name := fmt.Sprintf("src%d", 1+i%(pairs-1))
			if _, err := r.cl.Stats(name, packet.MatchAll); err != nil {
				t.Errorf("stats %s: %v", name, err)
				return
			}
			if err := r.cl.WriteConfig(name, "chaos/knob", []string{fmt.Sprint(i)}); err != nil {
				t.Errorf("writeConfig %s: %v", name, err)
				return
			}
			if _, err := r.cl.ReadConfig(name, "*"); err != nil {
				t.Errorf("readConfig %s: %v", name, err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
	}()

	// Phase 1: concurrent moves on every pair.
	var moves sync.WaitGroup
	moveErrs := make([]error, pairs)
	for i := 0; i < pairs; i++ {
		moves.Add(1)
		go func(i int) {
			defer moves.Done()
			moveErrs[i] = r.cl.MoveInternal(fmt.Sprintf("src%d", i), fmt.Sprintf("dst%d", i), packet.MatchAll)
		}(i)
	}

	// Forced mid-move handoffs: the gate guarantees pair 0's move is
	// frozen mid-stream — registered keys, outstanding puts, buffered
	// events all live in the router — when the rebalances run.
	r.gate.awaitReached(t, r.rts["src0"])
	if forceHandoffs {
		for _, mb := range []string{"src0", "dst1", "src2"} {
			cur, err := r.cl.ReplicaOf(mb)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.cl.Rebalance(mb, (cur+1)%replicas); err != nil {
				t.Fatalf("rebalance %s: %v", mb, err)
			}
		}
	}
	close(r.gate.release)
	moves.Wait()
	for i, err := range moveErrs {
		if err != nil {
			t.Fatalf("phase-1 move %d: %v", i, err)
		}
	}
	if !r.cl.WaitTxns(30 * time.Second) {
		t.Fatal("phase-1 transactions did not complete")
	}

	// Phase 2: the upper half of the pairs scales back down (dst -> src),
	// with one more handoff in flight when forcing.
	var back sync.WaitGroup
	backErrs := make([]error, pairs)
	for i := pairs / 2; i < pairs; i++ {
		back.Add(1)
		go func(i int) {
			defer back.Done()
			backErrs[i] = r.cl.MoveInternal(fmt.Sprintf("dst%d", i), fmt.Sprintf("src%d", i), packet.MatchAll)
		}(i)
	}
	if forceHandoffs {
		cur, err := r.cl.ReplicaOf("dst2")
		if err != nil {
			t.Fatal(err)
		}
		if err := r.cl.Rebalance("dst2", (cur+1)%replicas); err != nil {
			t.Fatalf("rebalance dst2: %v", err)
		}
	}
	back.Wait()
	for i, err := range backErrs {
		if err != nil {
			t.Fatalf("phase-2 move %d: %v", i, err)
		}
	}

	traffic.Wait()
	close(ctlDone)
	ctl.Wait()
	r.drainAll(t)
	if !r.cl.WaitTxns(30 * time.Second) {
		t.Fatal("transactions did not complete")
	}
	r.drainAll(t) // replayed events enqueued by late completions

	if forceHandoffs {
		if got := r.cl.Handoffs(); got < 2 {
			t.Fatalf("forced handoffs not performed: %d", got)
		}
	}
	assertRoutersQuiescent(t, r.cl)
	return r.combinedCounts(flows)
}

// TestClusterHandoffEquivalence is the tentpole acceptance criterion: the
// workload on replicas=3 with >= 2 forced mid-move handoffs must produce
// final per-flow state identical to the replicas=1 ablation (today's
// single-controller path), with zero lost events and no duplicate counting
// — every packet lands in exactly one counter.
func TestClusterHandoffEquivalence(t *testing.T) {
	const pairs, flows, rounds = 4, 60, 5
	single := runClusterWorkload(t, 1, false)
	replicated := runClusterWorkload(t, 3, true)
	if !reflect.DeepEqual(single, replicated) {
		t.Fatalf("final per-flow state diverged between replicas=1 and replicas=3-with-handoffs:\n single:     %v\n replicated: %v", single, replicated)
	}
	// Loss-freedom in absolute terms: 1 preloaded count + `rounds` packets
	// per flow, exactly once each.
	for p := 0; p < pairs; p++ {
		for f := 0; f < flows; f++ {
			if got := replicated[p][f]; got != rounds+1 {
				t.Fatalf("pair %d flow %d: combined count %d, want %d", p, f, got, rounds+1)
			}
		}
	}
}

// TestClusterChaosHandoffStorm keeps rebalancing random middleboxes across
// replicas while every pair moves under live traffic: no move may fail, no
// packet may be lost or double-counted, and the routers must be empty at
// the end.
func TestClusterChaosHandoffStorm(t *testing.T) {
	const pairs, flows, rounds, replicas = 4, 50, 4, 3
	r := newClusterRig(t, replicas, pairs, false)
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
				time.Sleep(5 * time.Millisecond)
			}
		}(i)
	}

	stopChaos := make(chan struct{})
	var chaos sync.WaitGroup
	chaos.Add(1)
	go func() {
		defer chaos.Done()
		// A deterministic storm: every MB in turn, cycled to the next
		// replica, as fast as the freezes allow.
		names := r.cl.Middleboxes()
		for i := 0; ; i++ {
			select {
			case <-stopChaos:
				return
			default:
			}
			name := names[i%len(names)]
			cur, err := r.cl.ReplicaOf(name)
			if err != nil {
				continue // mid-reconnect; fine under chaos
			}
			_ = r.cl.Rebalance(name, (cur+1+i%(replicas-1))%replicas)
			time.Sleep(time.Millisecond)
		}
	}()

	var moves sync.WaitGroup
	errs := make([]error, pairs)
	for i := 0; i < pairs; i++ {
		moves.Add(1)
		go func(i int) {
			defer moves.Done()
			errs[i] = r.cl.MoveInternal(fmt.Sprintf("src%d", i), fmt.Sprintf("dst%d", i), packet.MatchAll)
		}(i)
	}
	moves.Wait()
	traffic.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("move %d under chaos: %v", i, err)
		}
	}
	r.drainAll(t)
	if !r.cl.WaitTxns(30 * time.Second) {
		t.Fatal("transactions did not complete under chaos")
	}
	close(stopChaos)
	chaos.Wait()
	r.drainAll(t)

	if got := r.cl.Handoffs(); got < uint64(replicas) {
		t.Fatalf("chaos performed only %d handoffs", got)
	}
	for i := 0; i < pairs; i++ {
		for f := 0; f < flows; f++ {
			k := mbtest.FlowN(f)
			if got := r.srcs[i].Count(k) + r.dsts[i].Count(k); got != rounds+1 {
				t.Fatalf("pair %d flow %d: combined count %d, want %d", i, f, got, rounds+1)
			}
		}
		if got := r.srcs[i].Flows(); got != 0 {
			t.Fatalf("pair %d: source still holds %d flows", i, got)
		}
	}
	assertRoutersQuiescent(t, r.cl)
}

// TestClusterCrossPartitionOps pins a pair onto different replicas and runs
// every proxied northbound operation across the partition boundary.
func TestClusterCrossPartitionOps(t *testing.T) {
	r := newClusterRig(t, 3, 1, false)
	if err := r.cl.Rebalance("src0", 0); err != nil {
		t.Fatal(err)
	}
	if err := r.cl.Rebalance("dst0", 2); err != nil {
		t.Fatal(err)
	}
	r.srcs[0].Preload(40)

	if err := r.cl.WriteConfig("src0", "rules/0", []string{"alert"}); err != nil {
		t.Fatal(err)
	}
	if err := r.cl.CloneConfig("src0", "dst0"); err != nil {
		t.Fatal(err)
	}
	if !r.srcs[0].Config().Equal(r.dsts[0].Config()) {
		t.Fatal("cross-partition config clone diverged")
	}
	s, err := r.cl.Stats("src0", packet.MatchAll)
	if err != nil || s.SupportPerflowChunks != 40 {
		t.Fatalf("cross-partition stats: %+v, %v", s, err)
	}
	if err := r.cl.MoveInternal("src0", "dst0", packet.MatchAll); err != nil {
		t.Fatalf("cross-partition move: %v", err)
	}
	if got := r.dsts[0].Flows(); got != 40 {
		t.Fatalf("cross-partition move delivered %d flows, want 40", got)
	}
	if !r.cl.WaitTxns(10 * time.Second) {
		t.Fatal("cross-partition move did not complete")
	}
	if got := r.srcs[0].Flows(); got != 0 {
		t.Fatalf("source not emptied: %d", got)
	}

	// Shared-state transfers across the boundary.
	r.rts["src0"].HandlePacket(mbtest.PacketForFlow(0))
	if !r.rts["src0"].Drain(5 * time.Second) {
		t.Fatal("src0 did not drain")
	}
	if err := r.cl.MergeInternal("src0", "dst0"); err != nil {
		t.Fatalf("cross-partition merge: %v", err)
	}
	if got := r.dsts[0].SharedSupport(); got == 0 {
		t.Fatal("cross-partition merge moved nothing")
	}
	if !r.cl.WaitTxns(10 * time.Second) {
		t.Fatal("merge did not complete")
	}
}

// TestClusterDrain empties a replica live and verifies its middleboxes keep
// working from their new owners.
func TestClusterDrain(t *testing.T) {
	r := newClusterRig(t, 3, 2, false)
	victim := -1
	for _, name := range r.cl.Middleboxes() {
		i, err := r.cl.ReplicaOf(name)
		if err != nil {
			t.Fatal(err)
		}
		victim = i
		break
	}
	if err := r.cl.Drain(victim); err != nil {
		t.Fatal(err)
	}
	if got := r.cl.Replica(victim).Middleboxes(); len(got) != 0 {
		t.Fatalf("replica %d still owns %v after drain", victim, got)
	}
	r.srcs[0].Preload(25)
	if err := r.cl.MoveInternal("src0", "dst0", packet.MatchAll); err != nil {
		t.Fatalf("move after drain: %v", err)
	}
	if got := r.dsts[0].Flows(); got != 25 {
		t.Fatalf("post-drain move delivered %d flows", got)
	}
	r.cl.WaitTxns(10 * time.Second)
}

// TestClusterReplicasSpread sanity-checks the directory: with enough MBs
// and 3 replicas, more than one replica owns connections, and replicas=1
// puts everything on replica 0 (the ablation really is the old path).
func TestClusterReplicasSpread(t *testing.T) {
	r := newClusterRig(t, 3, 4, false)
	owners := map[int]int{}
	for _, name := range r.cl.Middleboxes() {
		i, err := r.cl.ReplicaOf(name)
		if err != nil {
			t.Fatal(err)
		}
		owners[i]++
	}
	if len(owners) < 2 {
		t.Fatalf("8 middleboxes all landed on one replica: %v", owners)
	}
	single := newClusterRig(t, 1, 2, false)
	for _, name := range single.cl.Middleboxes() {
		i, err := single.cl.ReplicaOf(name)
		if err != nil || i != 0 {
			t.Fatalf("replicas=1 owner of %s: %d, %v", name, i, err)
		}
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

			src.mb.handoffMu.Lock()
			h := c.router.exportHandoff(src.mb)
			src.mb.handoffMu.Unlock()
			if len(h.Keys) != 3 {
				t.Fatalf("export produced %d records, want 3: %+v", len(h.Keys), h)
			}
			// The payload must name its transactions by registry ID: that
			// is what lets replica-failure recovery abort the exact
			// transactions a dead coordinator left in a handed-off table.
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
			go func() { sendErr <- left.Send(handoffMessage(h)) }()
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

			// Import the decoded payload into a second replica and drain:
			// the ACKs must release the transferred buffers in order. The
			// import resolves transactions from the decoded bytes through
			// the exporter's registry — the cross-process code path.
			c2 := NewController(Options{Shards: 8}) // different shard count on purpose
			dropped, err := c2.router.importHandoff(src.mb, decoded.Handoff, c.registry)
			if err != nil {
				t.Fatal(err)
			}
			if dropped != 0 {
				t.Fatalf("import dropped %d keys of a fully resolvable payload", dropped)
			}
			src.mb.ctrl.Store(c2)
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

	src.mb.handoffMu.Lock()
	h := c.router.exportHandoff(src.mb)
	src.mb.handoffMu.Unlock()

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

// TestClusterBatchedEventHandoffStorm is the coalesced-wire-path stress:
// burst traffic (whole flow sets back to back, so the mbox outbox reliably
// produces multi-event frames) against concurrent moves while a handoff
// storm rotates every middlebox between three replicas. Batched frames must
// survive the freeze-transfer-replay discipline exactly like singles: every
// event either replays at the destination or is counted at the source, and
// the combined per-flow counts come out exact. Run under -race in CI.
func TestClusterBatchedEventHandoffStorm(t *testing.T) {
	const pairs, flows, rounds, replicas = 3, 40, 30, 3
	r := newClusterRig(t, replicas, pairs, false)
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
				// The whole flow set in one burst: the packet worker
				// raises the events back to back, so the 2 ms coalescing
				// window packs them into batched frames.
				for f := 0; f < flows; f++ {
					rt.HandlePacket(mbtest.PacketForFlow(f))
				}
				time.Sleep(2 * time.Millisecond)
			}
		}(i)
	}

	stopChaos := make(chan struct{})
	var chaos sync.WaitGroup
	chaos.Add(1)
	go func() {
		defer chaos.Done()
		names := r.cl.Middleboxes()
		for i := 0; ; i++ {
			select {
			case <-stopChaos:
				return
			default:
			}
			name := names[i%len(names)]
			cur, err := r.cl.ReplicaOf(name)
			if err != nil {
				continue
			}
			_ = r.cl.Rebalance(name, (cur+1)%replicas)
			time.Sleep(time.Millisecond)
		}
	}()

	var moves sync.WaitGroup
	errs := make([]error, pairs)
	for i := 0; i < pairs; i++ {
		moves.Add(1)
		go func(i int) {
			defer moves.Done()
			errs[i] = r.cl.MoveInternal(fmt.Sprintf("src%d", i), fmt.Sprintf("dst%d", i), packet.MatchAll)
		}(i)
	}
	moves.Wait()
	traffic.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("move %d under batched-event storm: %v", i, err)
		}
	}
	r.drainAll(t)
	if !r.cl.WaitTxns(30 * time.Second) {
		t.Fatal("transactions did not complete")
	}
	close(stopChaos)
	chaos.Wait()
	r.drainAll(t)

	if got := r.cl.Handoffs(); got < uint64(replicas) {
		t.Fatalf("storm performed only %d handoffs", got)
	}
	var raised uint64
	for i := 0; i < pairs; i++ {
		raised += r.rts[fmt.Sprintf("src%d", i)].Metrics().EventsRaised
	}
	if raised == 0 {
		t.Fatal("workload raised no reprocess events; the storm exercised nothing")
	}
	for i := 0; i < pairs; i++ {
		for f := 0; f < flows; f++ {
			k := mbtest.FlowN(f)
			if got := r.srcs[i].Count(k) + r.dsts[i].Count(k); got != rounds+1 {
				t.Fatalf("pair %d flow %d: combined count %d, want %d", i, f, got, rounds+1)
			}
		}
		if got := r.srcs[i].Flows(); got != 0 {
			t.Fatalf("pair %d: source still holds %d flows", i, got)
		}
	}
	assertRoutersQuiescent(t, r.cl)
}
