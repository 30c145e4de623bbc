package eval

import (
	"runtime"
	"testing"
	"time"

	"openmb/internal/obs"
	"openmb/internal/packet"
	"openmb/internal/racedetect"
)

// TestChainPacketBudget holds the burst chain to the per-packet budget of
// ARCHITECTURE.md ("Burst data path: the per-packet budget") where a machine
// can check it: 64 Ki pooled packets through monitor→NAT→IPS after warm-up
// allocate nothing, borrow from the pool once each (the NAT translates in
// place), draw no new packet from it (every packet released at the sink
// comes back to the source), are all delivered, and leave the pool
// balanced.
func TestChainPacketBudget(t *testing.T) {
	const flows = 256
	rig := NewChainRig(flows)
	defer rig.Close()
	// Warm-up: every flow's state at every hop — the IPS appends to a
	// connection's history string for its first 64 packets — the pool grown
	// to the in-flight window, the rings' and emit buffers' capacity.
	if err := rig.Inject(flows * 128); err != nil {
		t.Fatal(err)
	}
	const packets = 64 << 10
	before, delivered := rig.pool.Stats(), rig.Delivered()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := rig.Inject(packets); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	after := rig.pool.Stats()

	if got := rig.Delivered() - delivered; got != packets {
		t.Errorf("delivered %d of %d injected packets", got, packets)
	}
	// Not a single allocation per burst, let alone per packet. (A few come
	// from the Go runtime's own goroutines and from the pool reaching a new
	// high-water mark within the bound below.)
	if allocs := m1.Mallocs - m0.Mallocs; !racedetect.Enabled && allocs > packets/chainBurst/2 {
		t.Errorf("%d allocations for %d packets in %d bursts, want 0 per packet", allocs, packets, packets/chainBurst)
	}
	// One borrow per packet: the source's clone. The NAT rewrites that very
	// packet (it holds the only reference and nothing is marked), so no
	// second Get happens on the way.
	if gets := after.Gets - before.Gets; gets != packets {
		t.Errorf("pool handed out %d packets for %d injected, want exactly one each", gets, packets)
	}
	// The pool allocates only when no free packet sits on either of its
	// sides, so it never holds more packets than were borrowed at once: the
	// source's window plus the burst it is filling, and the burst the sink
	// has counted but not yet released.
	t.Logf("pool: %d gets for %d packets, %d packets allocated", after.Gets-before.Gets, packets, after.News)
	if maxBorrowed := uint64(chainOutstanding + 2*chainBurst); after.News > maxBorrowed {
		t.Errorf("pool holds %d packets (%d after warm-up), at most %d are ever borrowed at once", after.News, before.News, maxBorrowed)
	}
	for _, rt := range rig.rts {
		if !rt.Drain(10 * time.Second) {
			t.Fatalf("%s did not drain", rt.Name())
		}
		if m := rt.Metrics(); m.DroppedPackets != 0 {
			t.Errorf("%s shed %d packets at its ring", rt.Name(), m.DroppedPackets)
		}
	}
	if st := rig.pool.Stats(); st.Outstanding != 0 || st.FreeLen != int(st.News) || st.Gets != st.Releases {
		t.Errorf("pool not balanced after drain: %+v", st)
	}
}

// TestChainTracerHopSequence drives the monitor→NAT→IPS chain with the flow
// tracer armed on every hop and checks the per-hop record stream: every
// injected packet produces an ingress, dispatch, verdict (emits=1), and
// egress record at every middlebox, and a destination-based predicate keeps
// matching across the NAT's source rewrite — which happens in place, so the
// NAT's verdict must be recorded under the flow ID captured at dispatch.
func TestChainTracerHopSequence(t *testing.T) {
	const packets = 4
	rig := NewChainRig(1)
	defer rig.Close()
	m, err := packet.ParseFieldMatch("nw_dst=8.8.8.8,tp_dst=8080")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		rig.Runtime(i).ArmTrace(obs.TraceSpec{Match: m})
	}
	gets := rig.pool.Stats().Gets
	if err := rig.Inject(packets); err != nil {
		t.Fatal(err)
	}
	if got := rig.Delivered(); got != packets {
		t.Fatalf("delivered %d, want %d", got, packets)
	}
	if got := rig.pool.Stats().Gets - gets; got != packets {
		t.Fatalf("pool handed out %d packets for %d injected: the NAT copied instead of rewriting in place", got, packets)
	}
	for i, name := range []string{"chain-mon", "chain-nat", "chain-ips"} {
		recs := rig.Runtime(i).TraceRecords()
		perHop := map[obs.Hop]int{}
		for _, r := range recs {
			if r.MB != name {
				t.Fatalf("%s: record attributed to %q", name, r.MB)
			}
			perHop[r.Hop]++
			if r.Hop == obs.HopVerdict && r.Note != "emits=1" {
				t.Fatalf("%s: verdict note %q, want emits=1", name, r.Note)
			}
		}
		for _, h := range []obs.Hop{obs.HopIngress, obs.HopDispatch, obs.HopVerdict, obs.HopEgress} {
			if perHop[h] != packets {
				t.Fatalf("%s: %d %s records, want %d (all: %v)", name, perHop[h], h, packets, perHop)
			}
		}
		// A packet must hit ingress before anything else records it: no
		// prefix of the stream holds more dispatch records than ingress ones.
		if len(recs) == 0 || recs[0].Hop != obs.HopIngress {
			t.Fatalf("%s: first record is %v, want ingress", name, recs[0].Hop)
		}
		ingress, dispatch := 0, 0
		for i, r := range recs {
			switch r.Hop {
			case obs.HopIngress:
				ingress++
			case obs.HopDispatch:
				dispatch++
			}
			if dispatch > ingress {
				t.Fatalf("%s: record %d is dispatch %d of %d ingress records", name, i, dispatch, ingress)
			}
		}
	}
	// The NAT rewrites the source to its external IP; egress records are
	// captured post-rewrite, so the dst-based predicate is what kept the
	// flow visible. Dispatch and verdict describe the packet as it arrived.
	in := chainPacket(0).FlowID().Key()
	for _, r := range rig.Runtime(1).TraceRecords() {
		switch r.Hop {
		case obs.HopEgress:
			if r.Key.SrcIP.String() != "192.0.2.1" {
				t.Fatalf("NAT egress record not post-rewrite: %v", r.Key)
			}
		case obs.HopDispatch, obs.HopVerdict:
			if r.Key != in {
				t.Fatalf("NAT %s record under %v, want the arriving flow %v", r.Hop, r.Key, in)
			}
		}
	}
}

// TestChainTracerNonMatching pins the armed-but-filtered behaviour: a
// predicate naming a flow that never appears captures nothing, and the chain
// delivers identically — arming a narrow trace is free for everyone else.
func TestChainTracerNonMatching(t *testing.T) {
	const packets = 8
	rig := NewChainRig(2)
	defer rig.Close()
	m, err := packet.ParseFieldMatch("nw_src=172.16.0.1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		rig.Runtime(i).ArmTrace(obs.TraceSpec{Match: m, Budget: 16})
	}
	if err := rig.Inject(packets); err != nil {
		t.Fatal(err)
	}
	if got := rig.Delivered(); got != packets {
		t.Fatalf("delivered %d, want %d", got, packets)
	}
	for i := 0; i < 3; i++ {
		if recs := rig.Runtime(i).TraceRecords(); len(recs) != 0 {
			t.Fatalf("hop %d captured %d records for a flow that never appeared: %v", i, len(recs), recs)
		}
	}
}

// TestChainTracerBudget checks the per-hop record cap: a budget smaller than
// the traffic stops capture without disturbing delivery.
func TestChainTracerBudget(t *testing.T) {
	const packets = 16
	rig := NewChainRig(1)
	defer rig.Close()
	rig.Runtime(0).ArmTrace(obs.TraceSpec{Match: packet.MatchAll, Budget: 5})
	if err := rig.Inject(packets); err != nil {
		t.Fatal(err)
	}
	if got := len(rig.Runtime(0).TraceRecords()); got != 5 {
		t.Fatalf("budget 5, captured %d", got)
	}
	if got := rig.Delivered(); got != packets {
		t.Fatalf("delivered %d, want %d", got, packets)
	}
}
