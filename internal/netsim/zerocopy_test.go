package netsim

import (
	"math/rand"
	"testing"
	"time"

	"openmb/internal/packet"
)

// ringMode runs a delivery-ordering property on the one link implementation.
// It was two subtests while the copying channel links existed; the surviving
// one keeps its name so test history stays continuous.
func ringMode(t *testing.T, run func(t *testing.T, opts Options)) {
	t.Helper()
	t.Run("zerocopy", func(t *testing.T) { run(t, Options{}) })
}

// TestInjectDeliversOffCallerGoroutine pins the Send/Inject symmetry fix:
// Inject must hand the packet to a link pump, not run the endpoint's
// HandleBurst on the caller's goroutine.
func TestInjectDeliversOffCallerGoroutine(t *testing.T) {
	ringMode(t, func(t *testing.T, opts Options) {
		n := NewWithOptions(opts)
		defer n.Stop()
		callerDone := make(chan struct{})
		sawCallerDone := make(chan bool, 1)
		h := NewHost(n, "h", 0)
		h.OnPacket = func(*packet.Packet) {
			// If delivery were synchronous (the old Inject), the
			// caller could not have returned yet and this would time
			// out.
			select {
			case <-callerDone:
				sawCallerDone <- true
			case <-time.After(2 * time.Second):
				sawCallerDone <- false
			}
		}
		if err := n.Inject("h", mkPacket(1, 80)); err != nil {
			t.Fatal(err)
		}
		close(callerDone)
		if !<-sawCallerDone {
			t.Fatal("Inject delivered synchronously on the caller's goroutine")
		}
	})
}

// TestInjectPreservesFIFO pins per-endpoint FIFO ordering of injected
// packets — the property trace replay depends on.
func TestInjectPreservesFIFO(t *testing.T) {
	ringMode(t, func(t *testing.T, opts Options) {
		n := NewWithOptions(opts)
		defer n.Stop()
		h := NewHost(n, "h", 4096)
		const count = 500
		for i := 0; i < count; i++ {
			p := mkPacket(1, 80)
			p.ID = uint16(i)
			if err := n.Inject("h", p); err != nil {
				t.Fatal(err)
			}
		}
		if !n.Quiesce(5 * time.Second) {
			t.Fatal("quiesce")
		}
		recv := h.Received()
		if len(recv) != count {
			t.Fatalf("received %d, want %d", len(recv), count)
		}
		for i, p := range recv {
			if p.ID != uint16(i) {
				t.Fatalf("reordered at %d: got ID %d", i, p.ID)
			}
		}
	})
}

// TestInjectRunsFaultHooks pins the other half of the asymmetry fix: fault
// hooks installed on the ingress pseudo-link apply to injected packets,
// which the old synchronous Inject silently skipped.
func TestInjectRunsFaultHooks(t *testing.T) {
	ringMode(t, func(t *testing.T, opts Options) {
		n := NewWithOptions(opts)
		defer n.Stop()
		h := NewHost(n, "h", 0)
		if err := n.SetFault(Ingress, "h", func(*packet.Packet) Fault { return FaultDrop }); err != nil {
			t.Fatal(err)
		}
		n.Inject("h", mkPacket(1, 80))
		n.Quiesce(time.Second)
		if h.Count() != 0 || n.Dropped() != 1 {
			t.Fatalf("ingress drop fault ignored: count=%d dropped=%d", h.Count(), n.Dropped())
		}
		n.SetFault(Ingress, "h", func(*packet.Packet) Fault { return FaultDuplicate })
		n.Inject("h", mkPacket(1, 80))
		n.Quiesce(time.Second)
		if h.Count() != 2 {
			t.Fatalf("ingress duplicate fault ignored: count=%d", h.Count())
		}
	})
}

// TestInjectHonorsIngressLatency: injected packets ride a real link, so the
// delivery pipeline (latency included, when one is configured) applies.
func TestInjectAndSendShareDeliveryPath(t *testing.T) {
	ringMode(t, func(t *testing.T, opts Options) {
		n := NewWithOptions(opts)
		defer n.Stop()
		a := NewHost(n, "a", 0)
		b := NewHost(n, "b", 4096)
		if err := n.Connect("a", "b", 0); err != nil {
			t.Fatal(err)
		}
		// Interleave Send and Inject toward the same endpoint; each path
		// must stay FIFO within itself and nothing may be lost.
		const per = 200
		for i := 0; i < per; i++ {
			ps := mkPacket(1, 80)
			ps.ID = uint16(i)
			if err := a.Send("b", ps); err != nil {
				t.Fatal(err)
			}
			pi := mkPacket(2, 80)
			pi.ID = uint16(i)
			if err := n.Inject("b", pi); err != nil {
				t.Fatal(err)
			}
		}
		if !n.Quiesce(5 * time.Second) {
			t.Fatal("quiesce")
		}
		if b.Count() != 2*per {
			t.Fatalf("delivered %d, want %d", b.Count(), 2*per)
		}
		nextSent, nextInjected := uint16(0), uint16(0)
		for _, p := range b.Received() {
			switch p.SrcIP.As4()[3] {
			case 1:
				if p.ID != nextSent {
					t.Fatalf("sent stream reordered: got %d want %d", p.ID, nextSent)
				}
				nextSent++
			case 2:
				if p.ID != nextInjected {
					t.Fatalf("injected stream reordered: got %d want %d", p.ID, nextInjected)
				}
				nextInjected++
			}
		}
	})
}

// endpointFunc adapts a func to the Endpoint interface.
type endpointFunc func(ps []*packet.Packet)

func (f endpointFunc) HandleBurst(ps []*packet.Packet) { f(ps) }

// TestBorrowDisciplineStress is the randomized invariant check of the
// zero-copy path: a multi-hop topology (hosts -> switch -> switch -> hosts)
// with drop and duplicate faults on interior links, driven by concurrent
// pooled injections, must release every borrowed packet exactly once by the
// time the network quiesces and the hosts reset. The pool runs in accounting
// mode, so leaks and double releases are caught even across recycling; run
// under -race this doubles as the hand-off publication test.
func TestBorrowDisciplineStress(t *testing.T) {
	n := NewWithOptions(Options{RingSize: 256})
	defer n.Stop()
	pool := packet.NewPool(packet.PoolOptions{Accounting: true})

	s1 := NewSwitch(n, "s1")
	s2 := NewSwitch(n, "s2")
	hosts := []*Host{NewHost(n, "d0", 1<<16), NewHost(n, "d1", 64)}
	NewHost(n, "src", 0)
	for _, pair := range [][2]string{{"src", "s1"}, {"s1", "s2"}, {"s2", "d0"}, {"s2", "d1"}} {
		if err := n.Connect(pair[0], pair[1], 0); err != nil {
			t.Fatal(err)
		}
	}
	// d0 takes HTTP and mirrors nothing; everything else is mirrored to
	// both hosts so clones flow too.
	http, _ := packet.ParseFieldMatch("[tp_dst=80]")
	s1.Install(Rule{Priority: 1, Match: packet.MatchAll, OutPorts: []string{"s2"}})
	s2.Install(Rule{Priority: 10, Match: http, OutPorts: []string{"d0"}})
	s2.Install(Rule{Priority: 1, Match: packet.MatchAll, OutPorts: []string{"d0", "d1"}})

	// Random faults on the interior link: drops release, duplicates clone.
	// The hook runs only on that link's pump goroutine, so the unguarded
	// rand source is single-threaded.
	r := rand.New(rand.NewSource(7))
	if err := n.SetFault("s1", "s2", func(*packet.Packet) Fault {
		switch v := r.Int63() % 10; {
		case v < 2:
			return FaultDrop
		case v < 4:
			return FaultDuplicate
		default:
			return FaultNone
		}
	}); err != nil {
		t.Fatal(err)
	}

	const senders, per = 4, 300
	done := make(chan struct{})
	for w := 0; w < senders; w++ {
		go func(w int) {
			defer func() { done <- struct{}{} }()
			rnd := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < per; i++ {
				p := pool.Get()
				p.SrcIP = mkPacket(byte(w), 80).SrcIP
				p.DstIP = mkPacket(1, 80).DstIP
				p.Proto = packet.ProtoTCP
				p.SrcPort = uint16(1000 + w)
				p.DstPort = uint16([]int{80, 443}[rnd.Intn(2)])
				p.ID = uint16(i)
				p.Payload = append(p.Payload[:0], "stress-payload"...)
				if rnd.Intn(2) == 0 {
					if err := n.Send("src", "s1", p); err != nil {
						t.Error(err)
						return
					}
				} else {
					if err := n.Inject("s1", p); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	for w := 0; w < senders; w++ {
		<-done
	}
	if !n.Quiesce(10 * time.Second) {
		t.Fatal("network did not quiesce")
	}
	// Hosts hold the only remaining references; releasing them must drain
	// the pool to zero.
	for _, h := range hosts {
		h.Reset()
	}
	if err := pool.CheckLeaks(); err != nil {
		t.Fatal(err)
	}
	st := pool.Stats()
	if st.Gets == 0 || st.Releases == 0 {
		t.Fatalf("stress did not exercise the pool: %+v", st)
	}
}

// TestZeroCopyLinkHopAllocs asserts the steady-state link hop is
// allocation-free (≤ 2 allocs/packet overall budget, shared with the
// monitor-path assertion in the repository root).
func TestZeroCopyLinkHopAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting is noisy under -short race runs")
	}
	n := New()
	defer n.Stop()
	pool := packet.NewPool(packet.PoolOptions{})
	delivered := make(chan struct{}, 1)
	n.Attach("sink", endpointFunc(func(ps []*packet.Packet) {
		for _, p := range ps {
			p.Release()
			delivered <- struct{}{}
		}
	}))
	NewHost(n, "src", 0)
	if err := n.Connect("src", "sink", 0); err != nil {
		t.Fatal(err)
	}
	tpl := mkPacket(1, 80)
	hop := func() {
		if err := n.Send("src", "sink", pool.Clone(tpl)); err != nil {
			t.Fatal(err)
		}
		<-delivered
	}
	for i := 0; i < 100; i++ {
		hop() // warm the pool and the link
	}
	if allocs := testing.AllocsPerRun(500, hop); allocs > 2 {
		t.Fatalf("link hop allocates %.1f/packet, want <= 2", allocs)
	}
}

// TestModesDeliverIdentically injects 100 pooled packets into a switch that
// mirrors to two hosts and requires exactly 200 deliveries (the count the
// copying and ring links both produced while there were two).
func TestModesDeliverIdentically(t *testing.T) {
	n := New()
	defer n.Stop()
	sw := NewSwitch(n, "s1")
	b := NewHost(n, "b", 0)
	c := NewHost(n, "c", 0)
	NewHost(n, "a", 0)
	for _, pair := range [][2]string{{"a", "s1"}, {"s1", "b"}, {"s1", "c"}} {
		if err := n.Connect(pair[0], pair[1], 0); err != nil {
			t.Fatal(err)
		}
	}
	sw.Install(Rule{Priority: 1, Match: packet.MatchAll, OutPorts: []string{"b", "c"}})
	pool := packet.NewPool(packet.PoolOptions{})
	for i := 0; i < 100; i++ {
		if err := n.Inject("s1", pool.Clone(mkPacket(byte(i), 80))); err != nil {
			t.Fatal(err)
		}
	}
	if !n.Quiesce(5 * time.Second) {
		t.Fatal("quiesce")
	}
	if got := b.Count() + c.Count(); got != 200 {
		t.Fatalf("delivered %d packets to the two mirror hosts, want 200", got)
	}
}
